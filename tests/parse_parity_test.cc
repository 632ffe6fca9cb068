// Parse parity harness: the zero-copy index (LazyCertificate) and the
// owning parse built on it must accept EXACTLY the byte strings the
// pre-rewrite owning parser accepted, produce byte-identical
// Certificates, and report identical Errors (code, message, offset) on
// everything rejected — across generated corpora, deterministic DER
// mutants, handcrafted edge certificates, and whole pipeline runs at
// every thread count. The oracle below is the legacy parser retained
// verbatim from version control at the rewrite commit.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <sstream>

#include "asn1/der.h"
#include "asn1/time.h"
#include "core/arena.h"
#include "core/parallel_pipeline.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "ctlog/corpus.h"
#include "faultsim/der_mutator.h"
#include "lint/lint.h"
#include "x509/builder.h"
#include "x509/lazy.h"
#include "x509/parser.h"

namespace legacy {

// ---- BEGIN retained legacy parser (verbatim oracle) ------------------------
using namespace unicert;
using namespace unicert::x509;

Expected<asn1::Oid> parse_algorithm_identifier(const asn1::Tlv& tlv) {
    asn1::Reader r(tlv.content);
    auto oid_tlv = r.expect(asn1::Tag::kOid);
    if (!oid_tlv.ok()) return oid_tlv.error();
    return asn1::Oid::from_der(oid_tlv->content);
}

Expected<int64_t> parse_time(const asn1::Tlv& tlv) {
    if (tlv.is_universal(asn1::Tag::kUtcTime)) return asn1::parse_utc_time(tlv.content);
    if (tlv.is_universal(asn1::Tag::kGeneralizedTime)) {
        return asn1::parse_generalized_time(tlv.content);
    }
    return Error{"x509_bad_time_tag", "validity time must be UTCTime or GeneralizedTime"};
}

Expected<Certificate> parse_certificate(BytesView der) {
    if (Status depth = asn1::check_nesting(der); !depth.ok()) return depth.error();
    auto outer = asn1::read_tlv(der);
    if (!outer.ok()) return outer.error();
    if (!outer->is_universal(asn1::Tag::kSequence)) {
        return Error{"x509_not_sequence", "Certificate must be a SEQUENCE"};
    }

    Certificate cert;
    cert.der.assign(der.begin(), der.begin() + outer->total_len);

    asn1::Reader top(outer->content);

    auto tbs = top.expect(asn1::Tag::kSequence);
    if (!tbs.ok()) return tbs.error();
    {
        size_t tbs_start = outer->header_len;
        cert.tbs_der.assign(der.begin() + tbs_start, der.begin() + tbs_start + tbs->total_len);
    }

    asn1::Reader r(tbs->content);

    auto first = r.peek();
    if (!first.ok()) return first.error();
    if (first->is_context(0) && first->is_constructed()) {
        auto vwrap = r.next();
        asn1::Reader vr(vwrap->content);
        auto v = vr.expect(asn1::Tag::kInteger);
        if (!v.ok()) return v.error();
        auto version = asn1::decode_integer(v.value());
        if (!version.ok()) return version.error();
        cert.version = static_cast<int>(version.value());
    } else {
        cert.version = 0;
    }

    auto serial = r.expect(asn1::Tag::kInteger);
    if (!serial.ok()) return serial.error();
    auto serial_bytes = asn1::decode_integer_bytes(serial.value());
    if (!serial_bytes.ok()) return serial_bytes.error();
    cert.serial = std::move(serial_bytes).value();

    auto alg = r.expect(asn1::Tag::kSequence);
    if (!alg.ok()) return alg.error();
    auto alg_oid = parse_algorithm_identifier(alg.value());
    if (!alg_oid.ok()) return alg_oid.error();
    cert.signature_algorithm = std::move(alg_oid).value();

    auto issuer_tlv = r.peek();
    if (!issuer_tlv.ok()) return issuer_tlv.error();
    {
        BytesView span = tbs->content.subspan(r.position(), issuer_tlv->total_len);
        auto issuer = parse_name(span);
        if (!issuer.ok()) return issuer.error();
        cert.issuer = std::move(issuer).value();
        (void)r.next();
    }

    auto validity = r.expect(asn1::Tag::kSequence);
    if (!validity.ok()) return validity.error();
    {
        asn1::Reader vr(validity->content);
        auto nb_tlv = vr.next();
        if (!nb_tlv.ok()) return nb_tlv.error();
        auto nb = parse_time(nb_tlv.value());
        if (!nb.ok()) return nb.error();
        auto na_tlv = vr.next();
        if (!na_tlv.ok()) return na_tlv.error();
        auto na = parse_time(na_tlv.value());
        if (!na.ok()) return na.error();
        cert.validity = {nb.value(), na.value()};
    }

    auto subject_tlv = r.peek();
    if (!subject_tlv.ok()) return subject_tlv.error();
    {
        BytesView span = tbs->content.subspan(r.position(), subject_tlv->total_len);
        auto subject = parse_name(span);
        if (!subject.ok()) return subject.error();
        cert.subject = std::move(subject).value();
        (void)r.next();
    }

    auto spki = r.expect(asn1::Tag::kSequence);
    if (!spki.ok()) return spki.error();
    {
        asn1::Reader sr(spki->content);
        auto spki_alg = sr.expect(asn1::Tag::kSequence);
        if (!spki_alg.ok()) return spki_alg.error();
        auto bit_str = sr.expect(asn1::Tag::kBitString);
        if (!bit_str.ok()) return bit_str.error();
        auto key = asn1::decode_bit_string(bit_str.value());
        if (!key.ok()) return key.error();
        cert.subject_public_key = std::move(key).value();
    }

    while (!r.done()) {
        auto tlv = r.next();
        if (!tlv.ok()) return tlv.error();
        if (tlv->is_context(3) && tlv->is_constructed()) {
            asn1::Reader wrap(tlv->content);
            auto exts_seq = wrap.expect(asn1::Tag::kSequence);
            if (!exts_seq.ok()) return exts_seq.error();
            asn1::Reader er(exts_seq->content);
            while (!er.done()) {
                auto ext_tlv = er.expect(asn1::Tag::kSequence);
                if (!ext_tlv.ok()) return ext_tlv.error();
                asn1::Reader ef(ext_tlv->content);
                auto oid_tlv = ef.expect(asn1::Tag::kOid);
                if (!oid_tlv.ok()) return oid_tlv.error();
                auto oid = asn1::Oid::from_der(oid_tlv->content);
                if (!oid.ok()) return oid.error();

                Extension ext;
                ext.oid = std::move(oid).value();

                auto next = ef.next();
                if (!next.ok()) return next.error();
                if (next->is_universal(asn1::Tag::kBoolean)) {
                    auto crit = asn1::decode_boolean(next.value());
                    if (!crit.ok()) return crit.error();
                    ext.critical = crit.value();
                    next = ef.next();
                    if (!next.ok()) return next.error();
                }
                if (!next->is_universal(asn1::Tag::kOctetString)) {
                    return Error{"x509_ext_not_octet_string",
                                 "extnValue must be an OCTET STRING"};
                }
                ext.value.assign(next->content.begin(), next->content.end());
                cert.extensions.push_back(std::move(ext));
            }
        }
    }

    auto outer_alg = top.expect(asn1::Tag::kSequence);
    if (!outer_alg.ok()) return outer_alg.error();

    auto sig = top.expect(asn1::Tag::kBitString);
    if (!sig.ok()) return sig.error();
    auto sig_bytes = asn1::decode_bit_string(sig.value());
    if (!sig_bytes.ok()) return sig_bytes.error();
    cert.signature = std::move(sig_bytes).value();

    return cert;
}
// ---- END retained legacy parser --------------------------------------------

}  // namespace legacy

namespace {

using namespace unicert;
namespace oids = asn1::oids;

// Legacy and new parse of `der` must agree exactly: same acceptance,
// same Certificate bytes, same Error triple. On acceptance the lazy
// index (with and without arena) must also materialize identically.
void expect_parity(BytesView der, const std::string& label) {
    auto before = legacy::parse_certificate(der);
    auto after = x509::parse_certificate(der);
    ASSERT_EQ(before.ok(), after.ok()) << label;
    if (before.ok()) {
        EXPECT_EQ(before.value(), after.value()) << label;
        core::Arena arena;
        auto lazy = x509::LazyCertificate::index(der, &arena);
        ASSERT_TRUE(lazy.ok()) << label;
        EXPECT_EQ(lazy->materialize(), before.value()) << label;
    } else {
        EXPECT_EQ(after.error().code, before.error().code) << label;
        EXPECT_EQ(after.error().message, before.error().message) << label;
        EXPECT_EQ(after.error().offset, before.error().offset) << label;
        auto lazy = x509::LazyCertificate::index(der);
        ASSERT_FALSE(lazy.ok()) << label;
        EXPECT_EQ(lazy.error().code, before.error().code) << label;
        EXPECT_EQ(lazy.error().offset, before.error().offset) << label;
    }
}

std::vector<ctlog::CorpusCert> signed_corpus(uint64_t seed, double scale = 100000.0) {
    ctlog::CorpusOptions options;
    options.seed = seed;
    options.scale = scale;
    options.sign_certificates = true;
    return ctlog::CorpusGenerator(options).generate();
}

TEST(ParseParity, GeneratedCorpora) {
    for (uint64_t seed : {uint64_t{42}, uint64_t{7}}) {
        std::vector<ctlog::CorpusCert> corpus = signed_corpus(seed);
        ASSERT_GT(corpus.size(), 100u);
        size_t i = 0;
        for (const ctlog::CorpusCert& c : corpus) {
            ASSERT_FALSE(c.cert.der.empty());
            expect_parity(c.cert.der, "seed " + std::to_string(seed) + " cert " +
                                          std::to_string(i++));
        }
    }
}

TEST(ParseParity, DeterministicMutants) {
    std::vector<ctlog::CorpusCert> corpus = signed_corpus(42);
    faultsim::DerMutator mutator(0xC0FFEE);
    size_t certs = std::min<size_t>(corpus.size(), 40);
    for (size_t i = 0; i < certs; ++i) {
        for (uint64_t salt = 0; salt < 8; ++salt) {
            Bytes mutant = mutator.mutate(corpus[i].cert.der, salt * 1000 + i);
            expect_parity(mutant, "mutant cert " + std::to_string(i) + " salt " +
                                      std::to_string(salt));
        }
    }
}

// ---- Handcrafted edge certificates -----------------------------------------

Bytes utc(const char* s) { return Bytes(s, s + strlen(s)); }

// A full certificate whose TBS tail (everything after SPKI) is caller
// supplied; signature machinery is structural only (the parser never
// verifies it).
Bytes handcrafted(bool with_version, const std::function<void(asn1::Writer&)>& tbs_tail,
                  const std::function<void(asn1::Writer&)>& subject_override = nullptr) {
    asn1::Writer w;
    w.add_sequence([&](asn1::Writer& cert) {
        cert.add_sequence([&](asn1::Writer& tbs) {
            if (with_version) {
                tbs.add_explicit(0, [](asn1::Writer& v) { v.add_integer(2); });
            }
            tbs.add_integer_bytes(Bytes{0x80, 1, 2, 3, 4, 5, 6, 7});  // 8-byte, high bit
            tbs.add_sequence(
                [](asn1::Writer& alg) { alg.add_oid_der(oids::sim_sig_with_sha256().to_der()); });
            tbs.add_raw(x509::encode_name(
                x509::make_dn({x509::make_attribute(oids::common_name(), "Edge CA")})));
            tbs.add_sequence([](asn1::Writer& validity) {
                validity.add_tlv(0x17, utc("240101000000Z"));
                validity.add_tlv(0x17, utc("250101000000Z"));
            });
            if (subject_override) {
                subject_override(tbs);
            } else {
                tbs.add_raw(x509::encode_name(
                    x509::make_dn({x509::make_attribute(oids::common_name(), "edge.example")})));
            }
            tbs.add_sequence([](asn1::Writer& spki) {
                spki.add_sequence([](asn1::Writer& alg) {
                    alg.add_oid_der(oids::sim_sig_with_sha256().to_der());
                });
                spki.add_bit_string(Bytes{0xAA, 0xBB, 0xCC});
            });
            tbs_tail(tbs);
        });
        cert.add_sequence(
            [](asn1::Writer& alg) { alg.add_oid_der(oids::sim_sig_with_sha256().to_der()); });
        cert.add_bit_string(Bytes{0xDE, 0xAD});
    });
    return w.take();
}

TEST(ParseParity, HandcraftedEdgeCases) {
    std::vector<std::pair<std::string, Bytes>> edges;

    edges.emplace_back("v1 no version tag", handcrafted(false, [](asn1::Writer&) {}));
    edges.emplace_back("v3 no extensions", handcrafted(true, [](asn1::Writer&) {}));
    edges.emplace_back("unique ids ignored", handcrafted(true, [](asn1::Writer& tbs) {
                           tbs.add_tlv(0x81, Bytes{0x00, 0xFF});  // issuerUniqueID [1]
                           tbs.add_tlv(0x82, Bytes{0x00, 0x0F});  // subjectUniqueID [2]
                       }));
    edges.emplace_back("empty SAN + critical unknown ext",
                       handcrafted(true, [](asn1::Writer& tbs) {
                           tbs.add_explicit(3, [](asn1::Writer& wrap) {
                               wrap.add_sequence([](asn1::Writer& exts) {
                                   exts.add_sequence([](asn1::Writer& ext) {
                                       ext.add_oid_der(oids::subject_alt_name().to_der());
                                       ext.add_octet_string(Bytes{0x30, 0x00});
                                   });
                                   exts.add_sequence([](asn1::Writer& ext) {
                                       ext.add_oid_der(oids::ct_poison().to_der());
                                       ext.add_boolean(true);
                                       ext.add_octet_string(Bytes{0x05, 0x00});
                                   });
                               });
                           });
                       }));
    edges.emplace_back("ext trailing bytes ignored", handcrafted(true, [](asn1::Writer& tbs) {
                           tbs.add_explicit(3, [](asn1::Writer& wrap) {
                               wrap.add_sequence([](asn1::Writer& exts) {
                                   exts.add_sequence([](asn1::Writer& ext) {
                                       ext.add_oid_der(oids::key_usage().to_der());
                                       ext.add_octet_string(Bytes{0x03, 0x02, 0x05, 0xA0});
                                       ext.add_null();  // trailing garbage, ignored
                                   });
                               });
                           });
                       }));
    edges.emplace_back("two extension blocks appended",
                       handcrafted(true, [](asn1::Writer& tbs) {
                           for (const asn1::Oid* oid :
                                {&oids::key_usage(), &oids::basic_constraints()}) {
                               tbs.add_explicit(3, [&](asn1::Writer& wrap) {
                                   wrap.add_sequence([&](asn1::Writer& exts) {
                                       exts.add_sequence([&](asn1::Writer& ext) {
                                           ext.add_oid_der(oid->to_der());
                                           ext.add_octet_string(Bytes{0x05, 0x00});
                                       });
                                   });
                               });
                           }
                       }));
    edges.emplace_back("ext value not octet string", handcrafted(true, [](asn1::Writer& tbs) {
                           tbs.add_explicit(3, [](asn1::Writer& wrap) {
                               wrap.add_sequence([](asn1::Writer& exts) {
                                   exts.add_sequence([](asn1::Writer& ext) {
                                       ext.add_oid_der(oids::key_usage().to_der());
                                       ext.add_null();
                                   });
                               });
                           });
                       }));
    edges.emplace_back("subject attr non-string value",
                       handcrafted(true, [](asn1::Writer&) {}, [](asn1::Writer& tbs) {
                           tbs.add_sequence([](asn1::Writer& name) {
                               name.add_set([](asn1::Writer& rdn) {
                                   rdn.add_sequence([](asn1::Writer& atv) {
                                       atv.add_oid_der(oids::common_name().to_der());
                                       atv.add_integer(7);
                                   });
                               });
                           });
                       }));
    edges.emplace_back("subject empty RDN set",
                       handcrafted(true, [](asn1::Writer&) {}, [](asn1::Writer& tbs) {
                           tbs.add_sequence([](asn1::Writer& name) {
                               name.add_set([](asn1::Writer&) {});
                           });
                       }));
    edges.emplace_back("subject attr nonminimal OID",
                       handcrafted(true, [](asn1::Writer&) {}, [](asn1::Writer& tbs) {
                           tbs.add_sequence([](asn1::Writer& name) {
                               name.add_set([](asn1::Writer& rdn) {
                                   rdn.add_sequence([](asn1::Writer& atv) {
                                       atv.add_oid_der(Bytes{0x55, 0x80, 0x04});
                                       atv.add_string(asn1::Tag::kUtf8String,
                                                      std::string_view{"x"});
                                   });
                               });
                           });
                       }));

    // SPKI bit string with nonzero unused-bits octet.
    {
        asn1::Writer w;
        w.add_sequence([&](asn1::Writer& cert) {
            cert.add_sequence([&](asn1::Writer& tbs) {
                tbs.add_explicit(0, [](asn1::Writer& v) { v.add_integer(2); });
                tbs.add_integer(1);
                tbs.add_sequence([](asn1::Writer& alg) {
                    alg.add_oid_der(oids::sim_sig_with_sha256().to_der());
                });
                tbs.add_raw(x509::encode_name(
                    x509::make_dn({x509::make_attribute(oids::common_name(), "CA")})));
                tbs.add_sequence([](asn1::Writer& validity) {
                    validity.add_tlv(0x17, utc("240101000000Z"));
                    validity.add_tlv(0x17, utc("250101000000Z"));
                });
                tbs.add_raw(x509::encode_name(
                    x509::make_dn({x509::make_attribute(oids::common_name(), "leaf")})));
                tbs.add_sequence([](asn1::Writer& spki) {
                    spki.add_sequence([](asn1::Writer& alg) {
                        alg.add_oid_der(oids::sim_sig_with_sha256().to_der());
                    });
                    spki.add_bit_string(Bytes{0xAA}, /*unused_bits=*/1);
                });
            });
            cert.add_sequence([](asn1::Writer& alg) {
                alg.add_oid_der(oids::sim_sig_with_sha256().to_der());
            });
            cert.add_bit_string(Bytes{0xDE});
        });
        edges.emplace_back("spki unused bits nonzero", w.take());
    }

    // Validity with a non-time tag.
    edges.emplace_back("bad validity tag", [] {
        asn1::Writer w;
        w.add_sequence([&](asn1::Writer& cert) {
            cert.add_sequence([&](asn1::Writer& tbs) {
                tbs.add_integer(1);
                tbs.add_sequence([](asn1::Writer& alg) {
                    alg.add_oid_der(oids::sim_sig_with_sha256().to_der());
                });
                tbs.add_raw(x509::encode_name(
                    x509::make_dn({x509::make_attribute(oids::common_name(), "CA")})));
                tbs.add_sequence([](asn1::Writer& validity) {
                    validity.add_integer(42);
                    validity.add_tlv(0x17, utc("250101000000Z"));
                });
            });
        });
        return w.take();
    }());

    // Nesting bomb: deeper than kMaxNestingDepth.
    {
        Bytes bomb;
        for (int i = 0; i < 70; ++i) bomb.insert(bomb.begin(), {0x30, 0x00});
        // Fix up lengths inside-out so every level is well-formed.
        bomb.clear();
        Bytes inner = {0x05, 0x00};
        for (int i = 0; i < 70; ++i) {
            asn1::Writer w;
            w.add_sequence([&](asn1::Writer& s) { s.add_raw(inner); });
            inner = w.take();
        }
        edges.emplace_back("nesting bomb", inner);
    }

    edges.emplace_back("empty input", Bytes{});
    edges.emplace_back("outer not a sequence", Bytes{0x04, 0x02, 0x01, 0x02});
    {
        // Trailing garbage after the outer TLV is trimmed away.
        Bytes padded = handcrafted(true, [](asn1::Writer&) {});
        padded.insert(padded.end(), {0xDE, 0xAD, 0xBE, 0xEF});
        edges.emplace_back("trailing garbage after cert", padded);
    }

    for (const auto& [label, der] : edges) expect_parity(der, label);
}

// ---- Lint parity: in-memory vs wire ----------------------------------------

std::string report_fingerprint(const lint::CertReport& report) {
    std::ostringstream out;
    for (const lint::Finding& f : report.findings) {
        out << f.lint->name << "(" << f.detail << ");";
    }
    return out.str();
}

TEST(ParseParity, LintReportsInMemoryVsWire) {
    std::vector<ctlog::CorpusCert> corpus = signed_corpus(42);
    size_t checked = 0;
    for (const ctlog::CorpusCert& c : corpus) {
        lint::CertReport in_memory = lint::run_lints(c.cert);
        auto parsed = x509::parse_certificate(c.cert.der);
        ASSERT_TRUE(parsed.ok());
        lint::CertReport wire = lint::run_lints(*parsed);
        ASSERT_EQ(report_fingerprint(wire), report_fingerprint(in_memory)) << "cert " << checked;
        ++checked;
    }
    EXPECT_GT(checked, 100u);
}

// ---- Pipeline parity: wire streams at every thread count --------------------

class DerVecSource final : public core::CertSource {
public:
    explicit DerVecSource(const std::vector<Bytes>& ders) : ders_(&ders) {}

    size_t size_hint() const override { return ders_->size(); }
    Expected<std::optional<core::CertEntry>> next() override {
        if (pos_ >= ders_->size()) return std::optional<core::CertEntry>{};
        core::CertEntry entry;
        entry.index = pos_;
        entry.der = (*ders_)[pos_];
        ++pos_;
        return std::optional<core::CertEntry>(std::move(entry));
    }

private:
    const std::vector<Bytes>* ders_;
    size_t pos_ = 0;
};

std::string pipeline_fingerprint(const core::CompliancePipeline& pipeline) {
    std::ostringstream out;
    out << "nc=" << pipeline.noncompliant_count() << "/" << pipeline.analyzed().size() << "\n";
    for (const core::AnalyzedCert& a : pipeline.analyzed()) {
        out << (a.noncompliant ? "N " : "- ") << report_fingerprint(a.report) << "\n";
    }
    out << core::render_pipeline_stats(pipeline.stats());
    out << core::render_quarantine_report(pipeline.quarantine_report());
    return out.str();
}

// Valid certs interleaved with mutants (some of which parse, some
// quarantine) — the wire mix every jobs count must agree on.
std::vector<Bytes> wire_mix() {
    std::vector<ctlog::CorpusCert> corpus = signed_corpus(7, 300000.0);
    faultsim::DerMutator mutator(0xFEED);
    std::vector<Bytes> wire;
    for (size_t i = 0; i < corpus.size(); ++i) {
        wire.push_back(corpus[i].cert.der);
        if (i % 3 == 0) wire.push_back(mutator.mutate(corpus[i].cert.der, i));
    }
    return wire;
}

TEST(ParseParity, PipelineWireStreamAcrossJobs) {
    std::vector<Bytes> wire = wire_mix();
    ASSERT_GT(wire.size(), 50u);

    DerVecSource serial_source(wire);
    core::CompliancePipeline serial(serial_source);
    std::string expected = pipeline_fingerprint(serial);
    EXPECT_GT(serial.quarantine_report().records.size(), 0u);
    EXPECT_GT(serial.analyzed().size(), 0u);

    for (size_t jobs : {1u, 2u, 4u, 8u}) {
        DerVecSource source(wire);
        core::ParallelPipeline parallel(source, {}, {.jobs = jobs});
        EXPECT_EQ(pipeline_fingerprint(parallel), expected) << "jobs " << jobs;
    }
}

TEST(ParseParity, DerFileSourceMatchesListSource) {
    // Well-delimited entries only (a mutated outer length would desync
    // the concatenated stream): valid certs plus structurally-delimited
    // but unparseable ones, which must quarantine identically.
    std::vector<ctlog::CorpusCert> corpus = signed_corpus(42, 300000.0);
    std::vector<Bytes> wire;
    for (size_t i = 0; i < corpus.size(); ++i) {
        wire.push_back(corpus[i].cert.der);
        if (i % 5 == 0) {
            wire.push_back(handcrafted(true, [](asn1::Writer& tbs) {
                tbs.add_explicit(3, [](asn1::Writer& wrap) {
                    wrap.add_sequence([](asn1::Writer& exts) {
                        exts.add_sequence([](asn1::Writer& ext) {
                            ext.add_oid_der(oids::key_usage().to_der());
                            ext.add_null();  // -> x509_ext_not_octet_string
                        });
                    });
                });
            }));
        }
    }
    Bytes blob;
    for (const Bytes& der : wire) blob.insert(blob.end(), der.begin(), der.end());

    DerVecSource list_source(wire);
    core::CompliancePipeline from_list(list_source);
    std::string expected = pipeline_fingerprint(from_list);
    EXPECT_GT(from_list.quarantine_report().records.size(), 0u);

    core::DerFileCertSource file_source(blob);
    EXPECT_EQ(file_source.size_hint(), wire.size());
    core::CompliancePipeline from_file(file_source);
    EXPECT_EQ(pipeline_fingerprint(from_file), expected);

    for (size_t jobs : {2u, 8u}) {
        core::DerFileCertSource parallel_source(blob);
        core::ParallelPipeline parallel(parallel_source, {}, {.jobs = jobs});
        EXPECT_EQ(pipeline_fingerprint(parallel), expected) << "jobs " << jobs;
    }
}

}  // namespace
