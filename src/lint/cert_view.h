// unicert/lint/cert_view.h
//
// The certificate facade every lint rule reads through. It wraps one
// fully-parsed x509::Certificate: a wire certificate is decoded once
// (x509::parse_certificate) and every rule reads that one structure.
//
// When an AccessTrace sink is attached (lint::analysis::TracingCertView)
// every top-level field read and every extension probe is recorded, so
// the rule-set analyzer can diff actual accesses against the rule's
// declared RuleFootprint (DESIGN.md section 9).
//
// Rules must not capture the underlying Certificate: everything a rule
// reads goes through an accessor here, which is what makes footprint
// verification sound.
//
// Facts that several rules share (the SAN, the DNSName candidates with
// their labels and A-label checks, the decoded Subject values) are
// derived on first use and memoized on the view. Each accessor notes
// the fields it derives from on every call, memo hits included, so a
// rule's trace does not depend on which rule ran first. The memo lives
// as long as the view: run_lints builds one view per certificate, and
// nothing is cached across certificates or threads.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "idna/labels.h"
#include "unicode/codepoint.h"
#include "x509/certificate.h"
#include "x509/field.h"

namespace unicert::lint {

// Record of every access a rule performed through a CertView.
struct AccessTrace {
    uint32_t fields = 0;                 // ORed x509::field_bit()s
    std::vector<asn1::Oid> extensions;   // distinct extension OIDs probed

    void note_field(x509::CertField f) { fields |= x509::field_bit(f); }
    void note_extension(const asn1::Oid& oid);

    bool saw_field(x509::CertField f) const noexcept {
        return (fields & x509::field_bit(f)) != 0;
    }
    bool saw_extension(const asn1::Oid& oid) const noexcept;

    void clear() {
        fields = 0;
        extensions.clear();
    }
    void merge(const AccessTrace& other);
};

// One label of a DNSName candidate, split on '.'.
struct DnsLabel {
    std::string_view text;  // view into DnsName::value
    // IDNA check of the label; set exactly when
    // idna::looks_like_a_label(text).
    std::optional<idna::LabelCheck> idn;
};

// One DNSName candidate, as the paper treats "DNSName-related fields":
// a SAN dNSName, or a Subject CN that looks like a hostname.
struct DnsName {
    std::string value;             // lossy UTF-8 of the raw bytes
    BytesView raw;                 // raw value bytes as encoded
    bool from_san = false;         // false -> from a Subject CN
    std::vector<DnsLabel> labels;  // every '.'-separated label, empty ones included
};

// One Subject attribute with its value decoded per its declared type.
struct SubjectValue {
    const x509::AttributeValue* attribute = nullptr;
    std::optional<unicode::CodePoints> code_points;  // nullopt when undecodable
};

class CertView {
public:
    explicit CertView(const x509::Certificate& cert, AccessTrace* trace = nullptr) noexcept
        : cert_(&cert), trace_(trace) {}

    // The memoized facts hold views into one another, so a view is
    // neither copied nor moved.
    CertView(const CertView&) = delete;
    CertView& operator=(const CertView&) = delete;

    // ---- Top-level TBS fields -----------------------------------------

    int version() const {
        note(x509::CertField::kVersion);
        return cert_->version;
    }
    const x509::Validity& validity() const {
        note(x509::CertField::kValidity);
        return cert_->validity;
    }
    const Bytes& serial() const {
        note(x509::CertField::kSerial);
        return cert_->serial;
    }
    const asn1::Oid& signature_algorithm() const {
        note(x509::CertField::kSignatureAlgorithm);
        return cert_->signature_algorithm;
    }
    const x509::DistinguishedName& issuer() const {
        note(x509::CertField::kIssuer);
        return cert_->issuer;
    }
    const x509::DistinguishedName& subject() const {
        note(x509::CertField::kSubject);
        return cert_->subject;
    }
    const Bytes& subject_public_key() const {
        note(x509::CertField::kSubjectPublicKey);
        return cert_->subject_public_key;
    }
    const Bytes& signature() const {
        note(x509::CertField::kSignature);
        return cert_->signature;
    }

    // ---- Extension access ---------------------------------------------

    // Probing one extension by OID is tracked per OID, not as a read of
    // the whole extension list.
    const x509::Extension* find_extension(const asn1::Oid& oid) const {
        note_extension(oid);
        return cert_->find_extension(oid);
    }
    bool has_extension(const asn1::Oid& oid) const { return find_extension(oid) != nullptr; }

    // Enumerating the raw list requires CertField::kExtensions.
    const std::vector<x509::Extension>& extensions() const {
        note(x509::CertField::kExtensions);
        return cert_->extensions;
    }

    // ---- Typed lookups mirroring x509::Certificate --------------------

    // Memoized: the SAN is the most re-read value in the registry.
    const x509::GeneralNames& subject_alt_names() const;
    std::vector<const x509::AttributeValue*> subject_common_names() const {
        note(x509::CertField::kSubject);
        return cert_->subject_common_names();
    }
    bool is_precertificate() const;

    // ---- Derived facts, memoized --------------------------------------

    // Every DNSName candidate: the SAN dNSNames, then the Subject CNs
    // that look like hostnames (a dot, no space, no '@', no "://", at
    // most 253 bytes), each split into labels with every A-label
    // checked once. Reads the Subject and the SAN extension.
    const std::vector<DnsName>& dns_names() const;

    // Every Subject attribute in DN order, decoded once. Reads the
    // Subject.
    const std::vector<SubjectValue>& subject_values() const;

    // Whole-certificate escape hatch (DER, fingerprint, cross-field
    // logic). Footprint must declare CertField::kWholeCert.
    const x509::Certificate& whole_cert() const {
        note(x509::CertField::kWholeCert);
        return *cert_;
    }

private:
    void note(x509::CertField f) const {
        if (trace_ != nullptr) trace_->note_field(f);
    }
    void note_extension(const asn1::Oid& oid) const {
        if (trace_ != nullptr) trace_->note_extension(oid);
    }
    const x509::GeneralNames& san() const;

    const x509::Certificate* cert_;
    AccessTrace* trace_;
    mutable std::optional<x509::GeneralNames> san_;
    mutable std::optional<std::vector<DnsName>> dns_names_;
    mutable std::optional<std::vector<SubjectValue>> subject_values_;
};

}  // namespace unicert::lint
