// Command-line flags for the CLI tool: --name=value and --name value
// forms, bare boolean switches and positional arguments. A command
// declares every flag it takes (name, target, help) before Parse() applies
// the command line, so an unknown flag or a malformed value is rejected
// before any work starts. Values parse whole: "20x" is not the integer 20.
#pragma once

#include <map>
#include <string>
#include <variant>
#include <vector>

#include "util/check.h"

namespace p2p::util {

// Comma-separated items, empty ones dropped ("a,,b" -> {a, b}). Throws
// UsageError when no item is left.
std::vector<std::string> SplitList(const std::string& s);

class FlagParser {
 public:
  FlagParser(int argc, const char* const* argv);

  // Where a flag's value goes; the target's current value is the default.
  // (std::size_t and std::uint64_t are one of the two unsigned types.)
  using Target = std::variant<std::string*, bool*, double*, unsigned long*,
                              unsigned long long*, std::vector<double>*>;

  // Declare --name; a std::vector<double> takes a comma-separated list.
  void Add(const std::string& name, Target target, const std::string& help);

  // Apply the command line to the declared targets. Returns false, having
  // applied nothing, when --help was given. Throws UsageError on an
  // unknown flag or a malformed value.
  bool Parse();

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  // Usage text assembled from the declarations (name, default, help).
  std::string Help() const;

 private:
  struct Flag {
    std::string default_text;
    std::string help;
    Target target;
  };

  std::string program_;
  std::map<std::string, std::string> values_;  // name -> raw value
  std::vector<std::string> positional_;
  std::map<std::string, Flag> declared_;
};

}  // namespace p2p::util
