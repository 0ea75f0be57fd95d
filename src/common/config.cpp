#include "common/config.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace pinatubo {
namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

bool listed(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

Config Config::from_string(const std::string& text) {
  Config cfg;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    PIN_CHECK_MSG(eq != std::string::npos,
                  "config line " << lineno << " lacks '=': " << line);
    cfg.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
  return cfg;
}

void Config::set(const std::string& key, std::string value) {
  PIN_CHECK(!key.empty());
  map_[key] = std::move(value);
}

bool Config::contains(const std::string& key) const {
  return map_.count(key) != 0;
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_or(const std::string& key,
                           const std::string& def) const {
  return get(key).value_or(def);
}

std::int64_t Config::get_int(const std::string& key, std::int64_t def) const {
  const auto v = get(key);
  if (!v) return def;
  char* end = nullptr;
  errno = 0;
  const long long r = std::strtoll(v->c_str(), &end, 10);
  PIN_CHECK_MSG(end && *end == '\0' && end != v->c_str(),
                "bad int for " << key << ": " << *v);
  PIN_CHECK_MSG(errno != ERANGE,
                "int out of range for " << key << ": " << *v);
  return r;
}

std::uint64_t Config::get_u64(const std::string& key,
                              std::uint64_t def) const {
  const auto v = get(key);
  if (!v) return def;
  // strtoull silently accepts a sign and wraps negatives mod 2^64; a
  // negative value is never a valid u64 config, so reject it outright.
  PIN_CHECK_MSG(v->find('-') == std::string::npos,
                "negative u64 for " << key << ": " << *v);
  char* end = nullptr;
  errno = 0;
  const unsigned long long r = std::strtoull(v->c_str(), &end, 10);
  PIN_CHECK_MSG(end && *end == '\0' && end != v->c_str(),
                "bad u64 for " << key << ": " << *v);
  PIN_CHECK_MSG(errno != ERANGE,
                "u64 out of range for " << key << ": " << *v);
  return r;
}

unsigned Config::get_u32(const std::string& key, unsigned def) const {
  const std::uint64_t r = get_u64(key, def);
  PIN_CHECK_MSG(r <= std::numeric_limits<unsigned>::max(),
                "u32 out of range for " << key << ": " << r);
  return static_cast<unsigned>(r);
}

double Config::get_double(const std::string& key, double def) const {
  const auto v = get(key);
  if (!v) return def;
  char* end = nullptr;
  errno = 0;
  const double r = std::strtod(v->c_str(), &end);
  PIN_CHECK_MSG(end && *end == '\0' && end != v->c_str(),
                "bad double for " << key << ": " << *v);
  // ERANGE covers overflow (+-HUGE_VAL) and underflow (denormal/0); only
  // overflow is a config error — underflow rounds to a usable value.
  PIN_CHECK_MSG(errno != ERANGE || std::abs(r) != HUGE_VAL,
                "double out of range for " << key << ": " << *v);
  return r;
}

bool Config::get_bool(const std::string& key, bool def) const {
  const auto v = get(key);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  PIN_UNREACHABLE("bad bool for " + key + ": " + *v);
}

double Config::get_fraction(const std::string& key, double def) const {
  const double v = get_double(key, def);
  PIN_CHECK_MSG(std::isfinite(v) && v > 0.0 && v <= 1.0,
                key << " must be in (0, 1], got " << get_or(key, ""));
  return v;
}

void Config::check_keys(
    const std::string& what, const std::vector<std::string>& known,
    const std::function<bool(const std::string&)>& in_scope) const {
  for (const auto& [key, value] : map_) {
    if (!in_scope(key) || listed(known, key)) continue;
    std::ostringstream os;
    os << "unknown " << what << " key '" << key << "'; valid keys:";
    for (const auto& k : known) os << ' ' << k;
    throw Error(os.str());
  }
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.map_) map_[k] = v;
}

namespace {

Config read_config_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw Error("cannot open config " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return Config::from_string(ss.str());
}

}  // namespace

Args parse_args(int argc, char** argv, const ArgSpec& spec) {
  const bool takes_overrides = !spec.keys.empty() || !spec.sections.empty();
  Args args;
  Config overrides;
  std::size_t word = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      if (listed(spec.switches, name)) {
        if (eq != std::string::npos) throw Error(name + " takes no value");
        args.values.set(name, "true");
      } else if (listed(spec.options, name)) {
        std::string value;
        if (eq != std::string::npos)
          value = arg.substr(eq + 1);
        else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
          value = argv[++i];
        if (value.empty()) throw Error(name + " needs a value");
        args.values.set(name, value);
      } else {
        throw Error("unknown flag " + name);
      }
    } else if (takes_overrides && arg.find('=') != std::string::npos) {
      const auto eq = arg.find('=');
      const std::string key = trim(arg.substr(0, eq));
      if (key.empty()) throw Error("override lacks a key: " + arg);
      overrides.set(key, trim(arg.substr(eq + 1)));
    } else if (word < spec.words.size()) {
      args.values.set(spec.words[word++], arg);
    } else if (spec.files) {
      args.files.push_back(arg);
    } else {
      throw Error((takes_overrides ? "override lacks '=': "
                                   : "unexpected argument: ") +
                  arg);
    }
  }
  if (takes_overrides) {
    for (const auto& path : args.files)
      args.config.merge(read_config_file(path));
    args.config.merge(overrides);
    args.config.check_keys("config", spec.keys, [&](const std::string& key) {
      return std::none_of(spec.sections.begin(), spec.sections.end(),
                          [&](const std::string& section) {
                            return key.rfind(section, 0) == 0;
                          });
    });
  }
  return args;
}

int run_main(int argc, char** argv, const ArgSpec& spec,
             const std::function<int(const Args&)>& body) {
  std::string program = argc > 0 ? argv[0] : "";
  program.erase(0, program.find_last_of('/') + 1);  // npos + 1 erases none
  try {
    return body(parse_args(argc, argv, spec));
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", program.c_str(), e.what());
    return 2;
  }
}

}  // namespace pinatubo
