#include "util/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <type_traits>

namespace p2p::util {
namespace {

bool LooksLikeFlag(const std::string& s) {
  return s.size() > 2 && s.rfind("--", 0) == 0;
}

[[noreturn]] void Malformed(const std::string& what, const std::string& s) {
  throw UsageError("expected " + what + ", got '" + s + "'");
}

// The whole of `s` as a number; a leftover character is malformed, and so
// is a non-finite value.
template <class T>
void ParseInto(const std::string& s, T* out) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(static_cast<double>(v))) {
    Malformed(std::is_floating_point_v<T> ? "a number"
              : std::is_signed_v<T>       ? "an integer"
                                          : "a non-negative integer",
              s);
  }
  *out = v;
}
void ParseInto(const std::string& s, std::string* out) { *out = s; }
// Each item of a comma-separated list through the same whole-token parse.
void ParseInto(const std::string& s, std::vector<double>* out) {
  const std::vector<std::string> items = SplitList(s);
  std::vector<double> values(items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    ParseInto(items[i], &values[i]);
  *out = std::move(values);
}
// Present without a value or with one of {1,true,yes,on}: true;
// {0,false,no,off}: false.
void ParseInto(const std::string& s, bool* out) {
  std::string v = s;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
    *out = true;
  } else if (v == "0" || v == "false" || v == "no" || v == "off") {
    *out = false;
  } else {
    Malformed("a boolean", s);
  }
}

template <class T>
std::string FormatDefault(const T& v) {
  std::ostringstream os;
  os << std::boolalpha << v;
  return os.str();
}
std::string FormatDefault(const std::vector<double>& v) {
  std::string out;
  for (const double x : v) out += (out.empty() ? "" : ",") + FormatDefault(x);
  return out;
}

}  // namespace

std::vector<std::string> SplitList(const std::string& s) {
  std::vector<std::string> items;
  for (std::size_t pos = 0; pos <= s.size();) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    if (comma > pos) items.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  if (items.empty()) throw UsageError("empty list '" + s + "'");
  return items;
}

FlagParser::FlagParser(int argc, const char* const* argv) {
  P2P_CHECK(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!LooksLikeFlag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // --name value (value must not itself look like a flag) or a bare
    // boolean switch.
    if (i + 1 < argc && !LooksLikeFlag(argv[i + 1])) {
      values_[body] = argv[i + 1];
      ++i;
    } else {
      values_[body] = "";
    }
  }
}

void FlagParser::Add(const std::string& name, Target target,
                     const std::string& help) {
  P2P_CHECK_MSG(!declared_.count(name), "flag --" << name << " declared twice");
  const std::string def =
      std::visit([](auto* t) { return FormatDefault(*t); }, target);
  declared_[name] = {def, help, target};
}

bool FlagParser::Parse() {
  if (values_.count("help")) return false;
  for (const auto& [name, raw] : values_) {
    const auto it = declared_.find(name);
    if (it == declared_.end()) throw UsageError("unknown flag --" + name);
    try {
      std::visit([&raw](auto* t) { ParseInto(raw, t); }, it->second.target);
    } catch (const UsageError& e) {
      throw UsageError("flag --" + name + ": " + e.what());
    }
  }
  return true;
}

std::string FlagParser::Help() const {
  std::ostringstream os;
  os << "flags:\n";
  for (const auto& [name, flag] : declared_) {
    os << "  --" << name << " (default: " << flag.default_text << ")";
    if (!flag.help.empty()) os << "  " << flag.help;
    os << "\n";
  }
  os << "  --help  print these flags and exit\n";
  return os.str();
}

}  // namespace p2p::util
