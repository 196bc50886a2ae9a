#include "campaign/chaos.hpp"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace secbus::campaign {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr && error->empty()) *error = message;
  return false;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

bool parse_count(const std::string& value, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(value.c_str(), &end, 10);
  return end != value.c_str() && *end == '\0' && out >= 1;
}

bool parse_probability(const std::string& value, double& out) {
  char* end = nullptr;
  out = std::strtod(value.c_str(), &end);
  return end != value.c_str() && *end == '\0' && out >= 0.0 && out <= 1.0;
}

// "<lo>..<hi>" with lo <= hi.
bool parse_range(const std::string& value, std::uint64_t& lo,
                 std::uint64_t& hi) {
  const std::size_t dots = value.find("..");
  if (dots == std::string::npos) return false;
  const std::string a = value.substr(0, dots);
  const std::string b = value.substr(dots + 2);
  char* end = nullptr;
  lo = std::strtoull(a.c_str(), &end, 10);
  if (end == a.c_str() || *end != '\0') return false;
  hi = std::strtoull(b.c_str(), &end, 10);
  return end != b.c_str() && *end == '\0' && lo <= hi;
}

bool parse_net(const std::string& body, net::ChaosNetOptions& out,
               std::string* error) {
  net::ChaosNetOptions net;
  net.enabled = true;
  for (const std::string& kv : split(body, ',')) {
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      return fail(error, "SECBUS_CHAOS: net wants key=value pairs, got \"" +
                             kv + "\"");
    }
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    double p = 0.0;
    if (key == "drop" && parse_probability(value, p)) {
      net.drop = p;
    } else if (key == "dup" && parse_probability(value, p)) {
      net.dup = p;
    } else if (key == "trunc" && parse_probability(value, p)) {
      net.trunc = p;
    } else if (key == "reset" && parse_probability(value, p)) {
      net.reset = p;
    } else if (key == "delay_ms" &&
               parse_range(value, net.delay_min_ms, net.delay_max_ms)) {
      // parsed in place
    } else if (key == "seed") {
      char* end = nullptr;
      net.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return fail(error, "SECBUS_CHAOS: net seed wants an integer, got \"" +
                               value + "\"");
      }
    } else {
      return fail(error,
                  "SECBUS_CHAOS: bad net option \"" + kv +
                      "\" (supported: drop/dup/trunc/reset=<0..1>, "
                      "delay_ms=<lo>..<hi>, seed=<n>)");
    }
  }
  out = net;
  return true;
}

}  // namespace

bool ChaosOptions::parse(const std::string& text, ChaosOptions& out,
                         std::string* error) {
  out = ChaosOptions{};
  if (text.empty()) return true;
  for (const std::string& directive : split(text, ';')) {
    if (directive.empty()) continue;
    constexpr const char kKillAfter[] = "kill_after:";
    constexpr const char kKillServerAfter[] = "kill_server_after:";
    constexpr const char kNet[] = "net:";
    if (directive.compare(0, sizeof kKillServerAfter - 1, kKillServerAfter) ==
        0) {
      const std::string value = directive.substr(sizeof kKillServerAfter - 1);
      if (!parse_count(value, out.kill_server_after)) {
        return fail(error, "SECBUS_CHAOS: kill_server_after wants a positive "
                           "commit count, got \"" + value + "\"");
      }
    } else if (directive.compare(0, sizeof kKillAfter - 1, kKillAfter) == 0) {
      const std::string value = directive.substr(sizeof kKillAfter - 1);
      if (!parse_count(value, out.kill_after)) {
        return fail(error, "SECBUS_CHAOS: kill_after wants a positive job "
                           "count, got \"" + value + "\"");
      }
      out.kind = Kind::kKillAfter;
    } else if (directive.compare(0, sizeof kNet - 1, kNet) == 0) {
      if (!parse_net(directive.substr(sizeof kNet - 1), out.net, error)) {
        return false;
      }
    } else {
      return fail(error,
                  "SECBUS_CHAOS: unknown directive \"" + directive +
                      "\" (supported: kill_after:<n>, kill_server_after:<n>, "
                      "net:<k=v,...>)");
    }
  }
  return true;
}

bool ChaosOptions::from_env(ChaosOptions& out, std::string* error) {
  const char* env = std::getenv("SECBUS_CHAOS");
  return parse(env == nullptr ? std::string() : std::string(env), out, error);
}

void chaos_maybe_die(const ChaosOptions& chaos, std::uint64_t executed_jobs) {
  if (chaos.kind != ChaosOptions::Kind::kKillAfter) return;
  if (executed_jobs < chaos.kill_after) return;
  std::fprintf(stderr,
               "chaos: killing worker after %llu completed job(s) "
               "(SECBUS_CHAOS kill_after)\n",
               static_cast<unsigned long long>(executed_jobs));
  std::fflush(stderr);
  // _Exit, not exit: no atexit handlers, no stream flushing, no destructor
  // unwinding — the closest in-process stand-in for a crashed worker.
  std::_Exit(kChaosExitCode);
}

void chaos_maybe_kill_server(const ChaosOptions& chaos,
                             std::uint64_t logged_commits) {
  if (chaos.kill_server_after == 0) return;
  if (logged_commits < chaos.kill_server_after) return;
  std::fprintf(stderr,
               "chaos: killing fleet server after %llu logged commit(s) "
               "(SECBUS_CHAOS kill_server_after)\n",
               static_cast<unsigned long long>(logged_commits));
  std::fflush(stderr);
  std::_Exit(kChaosExitCode);
}

}  // namespace secbus::campaign
