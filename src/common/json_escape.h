// unicert/common/json_escape.h
//
// The one JSON string escaper, shared by every JSON writer in the
// library (core's report export and the two conformance gates'
// --json reports).
#pragma once

#include <string>
#include <string_view>

namespace unicert {

// JSON string escaping (control characters, quotes, backslash; UTF-8
// passes through verbatim).
std::string json_escape(std::string_view s);

}  // namespace unicert
