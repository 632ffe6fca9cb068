#include "core/json.h"

#include <cstdio>

#include "common/json_escape.h"

namespace unicert::core {

std::string lint_report_to_json(const lint::CertReport& report) {
    std::string out = "{\"noncompliant\":";
    out += report.noncompliant() ? "true" : "false";
    out += ",\"errors\":";
    out += report.has_error() ? "true" : "false";
    out += ",\"findings\":[";
    bool first = true;
    for (const lint::Finding& f : report.findings) {
        if (!first) out += ",";
        first = false;
        out += "{\"lint\":\"" + json_escape(f.lint->name) + "\"";
        out += ",\"severity\":\"" + std::string(lint::severity_name(f.lint->severity)) + "\"";
        out += ",\"type\":\"" + std::string(lint::nc_type_name(f.lint->type)) + "\"";
        out += ",\"source\":\"" + std::string(lint::source_name(f.lint->source)) + "\"";
        out += ",\"new\":";
        out += f.lint->is_new ? "true" : "false";
        out += ",\"detail\":\"" + json_escape(f.detail) + "\"}";
    }
    out += "]}";
    return out;
}

std::string taxonomy_to_json(const TaxonomyReport& report) {
    std::string out = "{\"total_certs\":" + std::to_string(report.total_certs);
    out += ",\"total_noncompliant\":" + std::to_string(report.total_nc);
    out += ",\"noncompliant_trusted\":" + std::to_string(report.total_nc_trusted);
    out += ",\"types\":[";
    bool first = true;
    for (const TaxonomyRow& row : report.rows) {
        if (!first) out += ",";
        first = false;
        out += "{\"type\":\"" + std::string(lint::nc_type_name(row.type)) + "\"";
        out += ",\"lints\":" + std::to_string(row.lints_all);
        out += ",\"lints_new\":" + std::to_string(row.lints_new);
        out += ",\"nc_certs\":" + std::to_string(row.nc_certs);
        out += ",\"nc_certs_by_new\":" + std::to_string(row.nc_certs_new);
        out += ",\"error_certs\":" + std::to_string(row.error_certs);
        out += ",\"warning_certs\":" + std::to_string(row.warning_certs);
        out += ",\"trusted_certs\":" + std::to_string(row.trusted_certs);
        out += ",\"recent_certs\":" + std::to_string(row.recent_certs);
        out += ",\"alive_certs\":" + std::to_string(row.alive_certs) + "}";
    }
    out += "]}";
    return out;
}

std::string issuer_report_to_json(const std::vector<IssuerRow>& rows) {
    std::string out = "{\"issuers\":[";
    bool first = true;
    for (const IssuerRow& row : rows) {
        if (!first) out += ",";
        first = false;
        out += "{\"organization\":\"" + json_escape(row.organization) + "\"";
        out += ",\"trust\":\"" + std::string(ctlog::trust_status_label(row.trust)) + "\"";
        out += ",\"region\":\"" + json_escape(row.region) + "\"";
        out += ",\"total\":" + std::to_string(row.total);
        out += ",\"noncompliant\":" + std::to_string(row.noncompliant);
        out += ",\"recent_noncompliant\":" + std::to_string(row.recent_nc) + "}";
    }
    out += "]}";
    return out;
}

namespace {

std::string fixed(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
}

std::string cdf_class_to_json(const std::vector<int64_t>& sorted) {
    std::string out = "{\"count\":" + std::to_string(sorted.size());
    out += ",\"quantiles\":{";
    bool first = true;
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
        if (!first) out += ",";
        first = false;
        out += "\"p" + std::to_string(static_cast<int>(q * 100)) + "\":" +
               fixed(ValidityCdf::quantile(sorted, q));
    }
    out += "},\"cdf_at_days\":{";
    first = true;
    for (int64_t days : {90, 180, 365, 398, 730, 825, 1185}) {
        if (!first) out += ",";
        first = false;
        out += "\"" + std::to_string(days) + "\":" +
               fixed(ValidityCdf::cdf_at(sorted, days));
    }
    out += "}}";
    return out;
}

}  // namespace

std::string validity_cdf_to_json(const ValidityCdf& cdf) {
    std::string out = "{\"idn_certs\":" + cdf_class_to_json(cdf.idn_certs);
    out += ",\"other_unicerts\":" + cdf_class_to_json(cdf.other_unicerts);
    out += ",\"noncompliant\":" + cdf_class_to_json(cdf.noncompliant);
    out += "}";
    return out;
}

}  // namespace unicert::core
