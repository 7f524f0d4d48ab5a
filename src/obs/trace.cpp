#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "util/logging.h"

namespace flowtime::obs {

void append_escaped(std::string* out, std::string_view text) {
  out->push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          *out += buffer;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

void append_key(std::string* body, std::string_view key) {
  if (!body->empty()) body->push_back(',');
  append_escaped(body, key);
  body->push_back(':');
}

}  // namespace

TraceEvent::TraceEvent(std::string_view type) { field("type", type); }

TraceEvent& TraceEvent::field(std::string_view key, double value) {
  if (!std::isfinite(value)) {
    // JSON has no inf/nan literals; keep the information as a string.
    return field(key, value > 0 ? "inf" : (value < 0 ? "-inf" : "nan"));
  }
  append_key(&body_, key);
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  body_ += buffer;
  return *this;
}

TraceEvent& TraceEvent::field(std::string_view key, std::int64_t value) {
  append_key(&body_, key);
  body_ += std::to_string(value);
  return *this;
}

TraceEvent& TraceEvent::field(std::string_view key, bool value) {
  append_key(&body_, key);
  body_ += value ? "true" : "false";
  return *this;
}

TraceEvent& TraceEvent::field(std::string_view key, std::string_view value) {
  append_key(&body_, key);
  append_escaped(&body_, value);
  return *this;
}

std::string TraceEvent::to_json() const { return "{" + body_ + "}"; }

JsonlFileSink::JsonlFileSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr) {
    FT_LOG(kError) << "obs: cannot open trace file " << path;
  }
}

JsonlFileSink::~JsonlFileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlFileSink::write(const std::string& json_line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  std::fwrite(json_line.data(), 1, json_line.size(), file_);
  std::fputc('\n', file_);
}

void MemorySink::write(const std::string& json_line) {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(json_line);
}

std::vector<std::string> MemorySink::lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

void MemorySink::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.clear();
}

namespace {

// Ownership under a mutex; emit() reads the raw pointer through an atomic
// so the hot path never locks.
std::mutex g_sink_mutex;
std::unique_ptr<TraceSink> g_sink_owner;
std::atomic<TraceSink*> g_sink{nullptr};

}  // namespace

void set_trace_sink(std::unique_ptr<TraceSink> sink) {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  g_sink.store(sink.get(), std::memory_order_release);
  g_sink_owner = std::move(sink);
  set_enabled(g_sink_owner != nullptr);
}

void clear_trace_sink() { set_trace_sink(nullptr); }

TraceSink* trace_sink() { return g_sink.load(std::memory_order_acquire); }

void emit(const TraceEvent& event) {
  if (TraceSink* sink = trace_sink()) sink->write(event.to_json());
}

bool open_trace_file(const std::string& path) {
  auto sink = std::make_unique<JsonlFileSink>(path);
  if (!sink->ok()) return false;
  set_trace_sink(std::move(sink));
  return true;
}

namespace {

void skip_spaces(const std::string& s, std::size_t* i) {
  while (*i < s.size() && (s[*i] == ' ' || s[*i] == '\t')) ++*i;
}

bool parse_string(const std::string& s, std::size_t* i, std::string* out) {
  if (*i >= s.size() || s[*i] != '"') return false;
  ++*i;
  out->clear();
  while (*i < s.size()) {
    const char c = s[*i];
    if (c == '"') {
      ++*i;
      return true;
    }
    if (c == '\\') {
      if (*i + 1 >= s.size()) return false;
      const char esc = s[*i + 1];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'u': {
          if (*i + 5 >= s.size()) return false;
          // Only the escapes TraceEvent produces: low control characters.
          unsigned code = 0;
          for (int d = 0; d < 4; ++d) {
            const char h = s[*i + 2 + static_cast<std::size_t>(d)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          out->push_back(static_cast<char>(code));
          *i += 4;
          break;
        }
        default:
          return false;
      }
      *i += 2;
      continue;
    }
    out->push_back(c);
    ++*i;
  }
  return false;  // unterminated
}

bool parse_scalar(const std::string& s, std::size_t* i, std::string* out) {
  out->clear();
  while (*i < s.size()) {
    const char c = s[*i];
    if (c == ',' || c == '}' || c == ' ' || c == '\t') break;
    const bool numeric = (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                         c == '.' || c == 'e' || c == 'E';
    const bool literal = std::strchr("truefalsn", c) != nullptr;
    if (!numeric && !literal) return false;
    out->push_back(c);
    ++*i;
  }
  if (out->empty()) return false;
  if (*out == "true" || *out == "false" || *out == "null") return true;
  // Must parse as a number.
  char* end = nullptr;
  std::strtod(out->c_str(), &end);
  return end != nullptr && *end == '\0';
}

std::atomic<std::int64_t> g_next_trace_id{1};
std::atomic<int> g_next_lane{0};

}  // namespace

std::int64_t next_trace_id() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

int thread_lane() {
  thread_local int lane = g_next_lane.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

double wall_now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

void reset_trace_ids_for_testing() {
  g_next_trace_id.store(1, std::memory_order_relaxed);
}

bool parse_flat_json(const std::string& line,
                     std::map<std::string, std::string>* out) {
  out->clear();
  std::size_t i = 0;
  skip_spaces(line, &i);
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  skip_spaces(line, &i);
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    while (true) {
      skip_spaces(line, &i);
      std::string key;
      if (!parse_string(line, &i, &key)) return false;
      skip_spaces(line, &i);
      if (i >= line.size() || line[i] != ':') return false;
      ++i;
      skip_spaces(line, &i);
      std::string value;
      if (i < line.size() && line[i] == '"') {
        if (!parse_string(line, &i, &value)) return false;
      } else {
        if (!parse_scalar(line, &i, &value)) return false;
      }
      (*out)[key] = value;
      skip_spaces(line, &i);
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == '}') {
        ++i;
        break;
      }
      return false;
    }
  }
  skip_spaces(line, &i);
  return i == line.size();
}

}  // namespace flowtime::obs
