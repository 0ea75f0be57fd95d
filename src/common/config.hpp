// Minimal `key = value` configuration store, and the one command-line
// reader every bench, example and tool parses argv through.
//
// Benches and examples accept config overrides ("geometry.banks=16") without
// external dependencies.  Supports '#' comments, section-less flat keys,
// typed getters with defaults, and strict getters that throw on absence.
// Integers are plain decimal: a leading zero is not octal, "0x" not hex.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pinatubo {

class Config {
 public:
  Config() = default;

  /// Parses "key = value" lines; '#' starts a comment; blank lines ignored.
  static Config from_string(const std::string& text);

  void set(const std::string& key, std::string value);
  bool contains(const std::string& key) const;

  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t def) const;
  /// get_u64 that also rejects values past 32 bits instead of truncating.
  unsigned get_u32(const std::string& key, unsigned def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;
  /// get_double that also rejects values outside (0, 1] (a workload scale).
  double get_fraction(const std::string& key, double def) const;

  /// Throws Error naming the first key that `in_scope` selects but `known`
  /// lacks, and listing `known`: a typo in a key must fail loudly, not
  /// silently run the default experiment.  `what` names the key family.
  void check_keys(const std::string& what,
                  const std::vector<std::string>& known,
                  const std::function<bool(const std::string&)>& in_scope)
      const;

  /// Merge `other` over this config (other wins).
  void merge(const Config& other);

  const std::map<std::string, std::string>& entries() const { return map_; }

 private:
  std::map<std::string, std::string> map_;
};

/// Writes `text` to `path`, replacing the file.  Throws Error naming the
/// path when the file cannot be opened or the write fails.
void write_text_file(const std::string& path, const std::string& text);

/// What a program's command line may hold; parse_args rejects the rest.
/// (Each `= {}` lets a designated initializer name only the fields it sets
/// without a -Wmissing-field-initializers warning.)
struct ArgSpec {
  /// "--name" flags that take no value: present or absent.
  std::vector<std::string> switches = {};
  /// "--name <value>" or "--name=<value>" flags.
  std::vector<std::string> options = {};
  /// Names of the positional words taken, in order; each is read like an
  /// option, under its name (Args::values.get_u32("nodes_log2", 15)).
  std::vector<std::string> words = {};
  /// Any number of further positional words: file paths.
  bool files = false;
  /// key=value overrides: the keys the program reads, and the key prefixes
  /// ("geometry.") whose keys a library parser reads and checks itself.
  /// A program that takes overrides reads its file words as config files.
  std::vector<std::string> keys = {};
  std::vector<std::string> sections = {};
};

/// A command line read against its ArgSpec.
struct Args {
  /// Options and named words under their names; a given switch reads "true".
  Config values;
  std::vector<std::string> files;
  /// The config files in order, then the overrides over them.
  Config config;
};

/// Reads argv[1..argc) against `spec`.  Throws Error naming the argument on
/// an undeclared flag; an option without a value (last argument, "--name=",
/// or followed by another "--" flag); a switch given a value; a word or
/// override the program does not take; and, through Config::check_keys, a
/// config key outside `spec.keys` and `spec.sections`.
Args parse_args(int argc, char** argv, const ArgSpec& spec);

/// The `main` of every bench, example and tool: reads argv against `spec`,
/// then runs `body`.  Any Error, from the reader or the run, prints
/// "<program>: <message>" on stderr and exits 2.
int run_main(int argc, char** argv, const ArgSpec& spec,
             const std::function<int(const Args&)>& body);

}  // namespace pinatubo
