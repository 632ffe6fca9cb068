#include "difffuzz/faulty_model.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/splitmix.h"

namespace unicert::difffuzz {
namespace {

// FNV-1a over the payload, mixed with seed and library: the fault
// decision is a pure function of content, so replay re-triggers it.
uint64_t content_hash(uint64_t seed, tlslib::Library lib, BytesView payload) noexcept {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (uint8_t b : payload) h = (h ^ b) * 0x100000001B3ULL;
    return mix64(seed ^ mix64(h) ^ mix64(static_cast<uint64_t>(lib) + 1));
}

}  // namespace

std::optional<tlslib::ParseOutcome> FaultyModel::maybe_fault(tlslib::Library lib,
                                                             BytesView payload) {
    if (!options_.only.empty() &&
        std::find(options_.only.begin(), options_.only.end(), lib) == options_.only.end()) {
        return std::nullopt;
    }
    uint64_t h = content_hash(options_.seed, lib, payload);
    double u = unit_draw(h);
    if (options_.crash_rate > 0.0 && u < options_.crash_rate) {
        ++injected_;
        throw std::runtime_error(std::string("injected crash in ") + tlslib::library_name(lib));
    }
    u -= options_.crash_rate;
    if (options_.hang_rate > 0.0 && u >= 0.0 && u < options_.hang_rate) {
        ++injected_;
        // Cooperative hang: consume (simulated) time inside the call;
        // the supervisor's watchdog detects it when the call returns.
        clock_->sleep_ms(options_.hang_ms);
        return std::nullopt;
    }
    u -= options_.hang_rate;
    if (options_.oversize_rate > 0.0 && u >= 0.0 && u < options_.oversize_rate) {
        ++injected_;
        tlslib::ParseOutcome out;
        out.value_utf8.assign(options_.oversize_bytes, 'A');
        return out;
    }
    return std::nullopt;
}

tlslib::DecodeBehavior FaultyModel::probe_decode(tlslib::Library lib, asn1::StringType st,
                                                 tlslib::FieldContext ctx) {
    return base_->probe_decode(lib, st, ctx);
}

tlslib::TextBehavior FaultyModel::probe_text(tlslib::Library lib, tlslib::FieldContext ctx) {
    return base_->probe_text(lib, ctx);
}

tlslib::ParseOutcome FaultyModel::parse_attribute(tlslib::Library lib,
                                                  const x509::AttributeValue& av) {
    if (auto fault = maybe_fault(lib, av.value_bytes)) return *fault;
    return base_->parse_attribute(lib, av);
}

tlslib::ParseOutcome FaultyModel::parse_general_name(tlslib::Library lib,
                                                     const x509::GeneralName& gn,
                                                     tlslib::FieldContext ctx) {
    if (auto fault = maybe_fault(lib, gn.value_bytes)) return *fault;
    return base_->parse_general_name(lib, gn, ctx);
}

tlslib::ParseOutcome FaultyModel::format_dn(tlslib::Library lib,
                                            const x509::DistinguishedName& dn) {
    return base_->format_dn(lib, dn);
}

tlslib::ParseOutcome FaultyModel::format_san(tlslib::Library lib,
                                             const x509::GeneralNames& names) {
    return base_->format_san(lib, names);
}

}  // namespace unicert::difffuzz
