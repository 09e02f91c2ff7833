#include "base/fault_injector.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "base/strings.h"

extern char** environ;

namespace mcrt {

namespace {

std::optional<FaultInjector::Action> parse_action(std::string_view text) {
  if (text == "throw") return FaultInjector::Action::kThrow;
  if (text == "fail") return FaultInjector::Action::kFail;
  if (text == "stall") return FaultInjector::Action::kStall;
  return std::nullopt;
}

}  // namespace

bool FaultInjector::configure(std::string_view spec, std::string* error) {
  for (const std::string_view entry : split_tokens(spec, ";,")) {
    const std::string_view item = trim(entry);
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      if (error != nullptr) {
        *error = "fault spec needs site=action: " + std::string(item);
      }
      return false;
    }
    const std::string site(trim(item.substr(0, eq)));
    std::string_view action_text = trim(item.substr(eq + 1));
    Fault fault;
    if (const auto at = action_text.find('@'); at != std::string_view::npos) {
      const std::string hit_text(trim(action_text.substr(at + 1)));
      char* end = nullptr;
      const long long hit = std::strtoll(hit_text.c_str(), &end, 10);
      if (end == hit_text.c_str() || *end != '\0' || hit <= 0) {
        if (error != nullptr) {
          *error = "fault spec needs a positive @hit: " + std::string(item);
        }
        return false;
      }
      fault.at_hit = static_cast<std::size_t>(hit);
      action_text = trim(action_text.substr(0, at));
    }
    const auto action = parse_action(action_text);
    if (!action) {
      if (error != nullptr) {
        *error = "unknown fault action (throw|fail|stall): " +
                 std::string(action_text);
      }
      return false;
    }
    fault.action = *action;
    const std::lock_guard<std::mutex> lock(mutex_);
    faults_[site] = fault;
  }
  return true;
}

bool FaultInjector::empty() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return faults_.empty();
}

FaultInjector::Action FaultInjector::fire(const std::string& site) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (faults_.empty()) return Action::kNone;
  auto it = faults_.find(site);
  if (it == faults_.end()) {
    // Trailing-'*' prefix entries ("write:*").
    for (auto wild = faults_.begin(); wild != faults_.end(); ++wild) {
      const std::string& key = wild->first;
      if (!key.empty() && key.back() == '*' &&
          site.compare(0, key.size() - 1,
                       std::string_view(key).substr(0, key.size() - 1)) == 0) {
        it = wild;
        break;
      }
    }
    if (it == faults_.end()) return Action::kNone;
  }
  const std::size_t hit = ++hits_[it->first];
  if (it->second.at_hit != 0 && hit != it->second.at_hit) {
    return Action::kNone;
  }
  return it->second.action;
}

bool FaultInjector::inject(const std::string& site,
                           const CancelToken* cancel) {
  switch (fire(site)) {
    case Action::kNone:
      return false;
    case Action::kThrow:
      throw FaultInjectedError(site);
    case Action::kFail:
      return true;
    case Action::kStall:
      // Deterministic "hang": never completes on its own. A stop request
      // (deadline or ctrl-C) ends it cleanly; SIGKILL ends it hard.
      for (;;) {
        poll_cancel(cancel);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
  }
  return false;
}

FaultInjector& FaultInjector::global() {
  static FaultInjector* const injector = [] {
    auto* f = new FaultInjector;
    for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
      const char* entry = *env;
      if (std::strncmp(entry, "MCRT_FAULT", 10) != 0) continue;
      const char* eq = std::strchr(entry, '=');
      if (eq == nullptr) continue;
      std::string error;
      if (!f->configure(eq + 1, &error)) {
        std::fprintf(stderr, "mcrt: ignoring %.*s: %s\n",
                     static_cast<int>(eq - entry), entry, error.c_str());
      }
    }
    return f;
  }();
  return *injector;
}

}  // namespace mcrt
