#include "lint/cert_view.h"

#include <algorithm>

namespace unicert::lint {

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

const x509::GeneralNames& CertView::subject_alt_names() const {
    note_extension(asn1::oids::subject_alt_name());
    if (!san_.has_value()) san_ = cert_->subject_alt_names();
    return *san_;
}

bool CertView::is_precertificate() const {
    note_extension(asn1::oids::ct_poison());
    return cert_->is_precertificate();
}

}  // namespace unicert::lint
