#include "util/strings.h"

namespace flowtime::util {

std::vector<std::string> split(std::string_view input, char delimiter) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(input.substr(start));
      break;
    }
    parts.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view trim(std::string_view input) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  while (!input.empty() && is_space(input.front())) input.remove_prefix(1);
  while (!input.empty() && is_space(input.back())) input.remove_suffix(1);
  return input;
}

bool starts_with(std::string_view input, std::string_view prefix) {
  return input.size() >= prefix.size() &&
         input.substr(0, prefix.size()) == prefix;
}

}  // namespace flowtime::util
