#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/config.hpp"
#include "common/error.hpp"

namespace pinatubo::obs {

std::uint32_t TraceSession::track(const std::string& name) {
  for (std::uint32_t i = 0; i < tracks_.size(); ++i)
    if (tracks_[i] == name) return i;
  tracks_.push_back(name);
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

void TraceSession::span(std::string name, double start_ns, double dur_ns,
                        std::uint32_t track, std::string category) {
  if (!enabled_) return;
  PIN_CHECK_MSG(track < tracks_.size(), "unregistered track " << track);
  PIN_CHECK(start_ns >= 0.0 && dur_ns >= 0.0);
  spans_.push_back(
      {std::move(name), std::move(category), track, start_ns, dur_ns});
}

double TraceSession::max_end_ns() const {
  double end = 0.0;
  for (const Span& s : spans_) end = std::max(end, s.end_ns());
  return end;
}

void TraceSession::clear() {
  spans_.clear();
  tracks_.clear();
  metrics_.clear();
}

void append_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::string TraceSession::to_chrome_json() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);  // ts in microseconds: 0.1 ns resolution
  os << "{\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata: one Chrome "thread" per track, sort order =
  // registration order so rank timelines group above the bus tracks.
  for (std::uint32_t t = 0; t < tracks_.size(); ++t) {
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
       << t << ",\"args\":{\"name\":";
    append_json_string(os, tracks_[t]);
    os << "}},{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":1,"
       << "\"tid\":" << t << ",\"args\":{\"sort_index\":" << t << "}}";
  }
  for (const Span& s : spans_) {
    if (!first) os << ",";
    first = false;
    // Complete events; Chrome ts/dur are microseconds.
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track << ",\"name\":";
    append_json_string(os, s.name);
    if (!s.category.empty()) {
      os << ",\"cat\":";
      append_json_string(os, s.category);
    }
    os << ",\"ts\":" << s.start_ns / 1e3 << ",\"dur\":" << s.dur_ns / 1e3
       << "}";
  }
  os << "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"max_span_end_ns\":"
     << max_end_ns() << ",\"spans\":" << spans_.size() << ",\"counters\":{";
  first = true;
  for (const auto& [name, value] : metrics_.counters()) {
    if (!first) os << ",";
    first = false;
    append_json_string(os, name);
    os << ":" << value;
  }
  os << "}}}";
  return os.str();
}

void TraceSession::write_chrome_json(const std::string& path) const {
  write_text_file(path, to_chrome_json() + '\n');
}

}  // namespace pinatubo::obs
