// String helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace flowtime::util {

/// Splits on a single-character delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view input, char delimiter);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view input);

/// True if `input` starts with `prefix`.
bool starts_with(std::string_view input, std::string_view prefix);

}  // namespace flowtime::util
