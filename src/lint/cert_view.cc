#include "lint/cert_view.h"

#include <algorithm>

namespace unicert::lint {
namespace {

// Does a CN value look like it is meant to be a hostname?
bool looks_like_hostname(std::string_view value) {
    if (value.empty() || value.size() > 253) return false;
    if (value.find('.') == std::string_view::npos) return false;
    if (value.find(' ') != std::string_view::npos) return false;
    if (value.find('@') != std::string_view::npos) return false;
    if (value.find("://") != std::string_view::npos) return false;
    return true;
}

}  // namespace

void AccessTrace::note_extension(const asn1::Oid& oid) {
    if (!saw_extension(oid)) extensions.push_back(oid);
}

bool AccessTrace::saw_extension(const asn1::Oid& oid) const noexcept {
    return std::find(extensions.begin(), extensions.end(), oid) != extensions.end();
}

void AccessTrace::merge(const AccessTrace& other) {
    fields |= other.fields;
    for (const asn1::Oid& oid : other.extensions) note_extension(oid);
}

const x509::GeneralNames& CertView::san() const {
    if (!san_.has_value()) san_ = cert_->subject_alt_names();
    return *san_;
}

const x509::GeneralNames& CertView::subject_alt_names() const {
    note_extension(asn1::oids::subject_alt_name());
    return san();
}

bool CertView::is_precertificate() const {
    note_extension(asn1::oids::ct_poison());
    return cert_->is_precertificate();
}

const std::vector<DnsName>& CertView::dns_names() const {
    note_extension(asn1::oids::subject_alt_name());
    note(x509::CertField::kSubject);
    if (dns_names_.has_value()) return *dns_names_;

    std::vector<DnsName>& names = dns_names_.emplace();
    names.reserve(san().size() + cert_->subject.rdns.size());
    for (const x509::GeneralName& gn : san()) {
        if (gn.type == x509::GeneralNameType::kDnsName) {
            names.push_back({gn.to_utf8_lossy(), gn.value_bytes, /*from_san=*/true, {}});
        }
    }
    for (const x509::Rdn& rdn : cert_->subject.rdns) {
        for (const x509::AttributeValue& av : rdn.attributes) {
            if (av.type != asn1::oids::common_name()) continue;
            std::string value = av.to_utf8_lossy();
            if (looks_like_hostname(value)) {
                names.push_back({std::move(value), av.value_bytes, /*from_san=*/false, {}});
            }
        }
    }
    // Split once every value is in place: labels are views into the
    // values, and growing `names` moves them (a short string's bytes
    // move with it).
    for (DnsName& name : names) {
        const std::string_view host = name.value;
        name.labels.reserve(static_cast<size_t>(std::count(host.begin(), host.end(), '.')) + 1);
        size_t start = 0;
        for (;;) {
            const size_t dot = host.find('.', start);
            DnsLabel& label = name.labels.emplace_back();
            label.text = host.substr(start, dot == std::string_view::npos ? dot : dot - start);
            if (idna::looks_like_a_label(label.text)) label.idn = idna::check_label(label.text);
            if (dot == std::string_view::npos) break;
            start = dot + 1;
        }
    }
    return names;
}

const std::vector<SubjectValue>& CertView::subject_values() const {
    note(x509::CertField::kSubject);
    if (subject_values_.has_value()) return *subject_values_;

    std::vector<SubjectValue>& values = subject_values_.emplace();
    size_t attributes = 0;
    for (const x509::Rdn& rdn : cert_->subject.rdns) attributes += rdn.attributes.size();
    values.reserve(attributes);
    for (const x509::Rdn& rdn : cert_->subject.rdns) {
        for (const x509::AttributeValue& av : rdn.attributes) {
            SubjectValue& value = values.emplace_back();
            value.attribute = &av;
            if (auto decoded = av.decode(); decoded.ok()) {
                value.code_points = std::move(decoded).value();
            }
        }
    }
    return values;
}

}  // namespace unicert::lint
