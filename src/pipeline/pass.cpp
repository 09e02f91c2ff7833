#include "pipeline/pass.h"

#include <cerrno>
#include <cstdlib>

#include "base/strings.h"

namespace mcrt {

std::optional<std::string> PassArgs::value(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void PassArgs::note_error_offset(const std::string& key,
                                 bool prefer_value) const {
  const auto it = offsets_.find(key);
  if (it == offsets_.end()) return;
  const std::size_t offset = prefer_value && it->second.value != kNoOffset
                                 ? it->second.value
                                 : it->second.key;
  if (offset != kNoOffset) last_error_offset_ = offset;
}

std::optional<std::int64_t> PassArgs::int_value(const std::string& key,
                                                std::string* error) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  const std::string& text = it->second;
  if (text.empty()) {
    if (error != nullptr) {
      *error = str_format("argument '%s' needs an integer value", key.c_str());
    }
    note_error_offset(key, /*prefer_value=*/false);
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    if (error != nullptr) {
      *error = str_format("argument '%s=%s' is not an integer", key.c_str(),
                          text.c_str());
    }
    note_error_offset(key, /*prefer_value=*/true);
    return std::nullopt;
  }
  if (errno == ERANGE) {
    if (error != nullptr) {
      *error = str_format("argument '%s=%s' overflows a 64-bit integer",
                          key.c_str(), text.c_str());
    }
    note_error_offset(key, /*prefer_value=*/true);
    return std::nullopt;
  }
  return static_cast<std::int64_t>(parsed);
}

std::optional<std::int64_t> PassArgs::int_value_in_range(
    const std::string& key, std::int64_t min, std::int64_t max,
    std::string* error) const {
  std::string parse_error;
  const std::optional<std::int64_t> parsed = int_value(key, &parse_error);
  if (!parsed.has_value()) {  // absent key: not an error, parse_error empty
    if (error != nullptr && !parse_error.empty()) *error = parse_error;
    return std::nullopt;
  }
  if (*parsed < min || *parsed > max) {
    if (error != nullptr) {
      *error = str_format(
          "argument '%s=%s' must be between %lld and %lld", key.c_str(),
          entries_.at(key).c_str(), static_cast<long long>(min),
          static_cast<long long>(max));
    }
    note_error_offset(key, /*prefer_value=*/true);
    return std::nullopt;
  }
  return parsed;
}

bool PassArgs::expect_keys(std::span<const std::string_view> known,
                           std::string_view pass_name,
                           std::string* error) const {
  for (const auto& [key, value] : entries_) {
    bool found = false;
    for (const std::string_view k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      if (error != nullptr) {
        *error = str_format("pass '%.*s' does not take argument '%s'",
                            static_cast<int>(pass_name.size()),
                            pass_name.data(), key.c_str());
      }
      note_error_offset(key, /*prefer_value=*/false);
      return false;
    }
  }
  return true;
}

bool Pass::configure(const PassArgs& args, std::string* error) {
  return args.expect_keys({}, name(), error);
}

}  // namespace mcrt
