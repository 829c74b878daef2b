// Tiny command-line flag parser shared by the benchmark and example
// binaries. Supports --key=value and --flag forms; anything else is kept
// as a positional argument.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spiral::util {

class CliArgs {
 public:
  CliArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        const auto eq = a.find('=');
        const bool bare = eq == std::string::npos;
        flags_.insert_or_assign(a.substr(2, bare ? eq : eq - 2),
                                bare ? std::string("1") : a.substr(eq + 1));
      } else {
        positional_.push_back(a);
      }
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return flags_.count(key) > 0;
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& dflt = "") const {
    auto it = flags_.find(key);
    return it == flags_.end() ? dflt : it->second;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t dflt) const {
    auto it = flags_.find(key);
    return it == flags_.end() ? dflt : std::stoll(it->second);
  }

  [[nodiscard]] double get_double(const std::string& key, double dflt) const {
    auto it = flags_.find(key);
    return it == flags_.end() ? dflt : std::stod(it->second);
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace spiral::util
