#include "obs/exposition.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>
#endif

namespace tsmo::obs {

namespace {

bool legal_name_char(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
         c == ':' || std::isdigit(static_cast<unsigned char>(c));
}

/// One rendered sample line: optional label pair + value text.
struct Sample {
  std::string label_key;
  std::string label_value;
  std::string value;
};

/// One exposition family: unique name, single TYPE/HELP pair, samples.
struct Family {
  std::string type;  // "counter" | "gauge" | "histogram"
  std::string help;
  std::vector<Sample> samples;
  /// Histograms render their own multi-line body instead of samples.
  std::string raw_body;
};

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// "worker.<N>.<rest>" -> rest; returns true and fills n/rest on match.
bool parse_worker_gauge(const std::string& name, std::string& n,
                        std::string& rest) {
  const std::string prefix = "worker.";
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  const std::size_t dot = name.find('.', prefix.size());
  if (dot == std::string::npos || dot == prefix.size()) return false;
  const std::string id = name.substr(prefix.size(), dot - prefix.size());
  for (char c : id) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  if (dot + 1 >= name.size()) return false;
  n = id;
  rest = name.substr(dot + 1);
  return true;
}

/// "channel.<label>.depth" -> label.
bool parse_channel_gauge(const std::string& name, std::string& label) {
  const std::string prefix = "channel.";
  const std::string suffix = ".depth";
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  label = name.substr(prefix.size(),
                      name.size() - prefix.size() - suffix.size());
  return true;
}

/// Histogram family name: strip a trailing "_ns" and append "_seconds".
std::string histogram_family(const std::string& prefix,
                             const std::string& name) {
  std::string base = name;
  const std::string ns = "_ns";
  if (base.size() > ns.size() &&
      base.compare(base.size() - ns.size(), ns.size(), ns) == 0) {
    base.resize(base.size() - ns.size());
  }
  return prefix + "_" + sanitize_metric_name(base) + "_seconds";
}

void render_histogram_body(std::string& out, const std::string& family,
                           const telemetry::HistogramSnap& h) {
  // Cumulative counts over the log2 buckets; the bucket upper bound of
  // bucket b is 2^b ns (bucket 0 holds exact zeros, le="0").
  int last = telemetry::kHistogramBuckets - 1;
  while (last > 0 && h.buckets[last] == 0) --last;
  std::uint64_t cum = 0;
  for (int b = 0; b <= last; ++b) {
    cum += h.buckets[b];
    const double le_seconds = b == 0 ? 0.0 : std::ldexp(1.0, b) * 1e-9;
    out += family + "_bucket{le=\"" + fmt_double(le_seconds) + "\"} " +
           fmt_u64(cum) + "\n";
  }
  // Under concurrent mutation a snapshot can observe a bucket increment
  // whose matching count increment has not landed yet (record_ns stores
  // bucket, then count, both relaxed; the snapshot reads in the same
  // order), leaving h.count below the finite cumulative total.  Clamp so
  // the rendered series keeps the exposition-format invariants: buckets
  // cumulative and monotone, +Inf == _count >= every finite bucket.
  const std::uint64_t total = std::max(h.count, cum);
  out += family + "_bucket{le=\"+Inf\"} " + fmt_u64(total) + "\n";
  out += family + "_sum " +
         fmt_double(static_cast<double>(h.sum_ns) * 1e-9) + "\n";
  out += family + "_count " + fmt_u64(total) + "\n";
}

}  // namespace

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out.push_back(legal_name_char(c) ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  if (std::isdigit(static_cast<unsigned char>(out.front()))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

void write_prometheus(std::ostream& os, const telemetry::Snapshot& snap,
                      const std::string& prefix) {
  // std::map keeps family order stable across scrapes (sorted by name).
  std::map<std::string, Family> families;

  for (const telemetry::CounterSnap& c : snap.counters) {
    const std::string family =
        prefix + "_" + sanitize_metric_name(c.name) + "_total";
    Family& f = families[family];
    f.type = "counter";
    f.help = "Counter " + c.name;
    f.samples.push_back(Sample{"", "", fmt_u64(c.value)});
  }

  for (const telemetry::GaugeSnap& g : snap.gauges) {
    std::string worker_id, rest, channel;
    if (parse_worker_gauge(g.name, worker_id, rest)) {
      const std::string family =
          prefix + "_worker_" + sanitize_metric_name(rest);
      Family& f = families[family];
      f.type = "gauge";
      f.help = "Per-worker gauge worker.<id>." + rest;
      f.samples.push_back(
          Sample{"worker", worker_id, std::to_string(g.value)});
    } else if (parse_channel_gauge(g.name, channel)) {
      const std::string family = prefix + "_channel_depth";
      Family& f = families[family];
      f.type = "gauge";
      f.help = "Queue depth of channel.<name>.depth";
      f.samples.push_back(
          Sample{"channel", channel, std::to_string(g.value)});
    } else {
      const std::string family = prefix + "_" + sanitize_metric_name(g.name);
      Family& f = families[family];
      f.type = "gauge";
      f.help = "Gauge " + g.name;
      f.samples.push_back(Sample{"", "", std::to_string(g.value)});
    }
  }

  for (const telemetry::HistogramSnap& h : snap.histograms) {
    const std::string family = histogram_family(prefix, h.name);
    Family& f = families[family];
    f.type = "histogram";
    f.help = "Histogram " + h.name + " (log2 buckets, seconds)";
    render_histogram_body(f.raw_body, family, h);
  }

  for (const auto& [name, f] : families) {
    // HELP text: escape backslash and newline per the exposition format.
    std::string help;
    for (char c : f.help) {
      if (c == '\\') {
        help += "\\\\";
      } else if (c == '\n') {
        help += "\\n";
      } else {
        help.push_back(c);
      }
    }
    os << "# HELP " << name << ' ' << help << '\n';
    os << "# TYPE " << name << ' ' << f.type << '\n';
    for (const Sample& s : f.samples) {
      os << name;
      if (!s.label_key.empty()) {
        os << '{' << sanitize_metric_name(s.label_key) << "=\""
           << escape_label_value(s.label_value) << "\"}";
      }
      os << ' ' << s.value << '\n';
    }
    os << f.raw_body;
  }
}

#if defined(__linux__)

ProcessStats read_process_stats() {
  ProcessStats ps;
  // RSS from /proc/self/statm field 2 (pages).
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0;
    long resident = 0;
    if (std::fscanf(f, "%ld %ld", &size, &resident) == 2) {
      ps.resident_memory_bytes =
          static_cast<double>(resident) *
          static_cast<double>(sysconf(_SC_PAGESIZE));
      ps.available = true;
    }
    std::fclose(f);
  }
  // utime/stime and starttime from /proc/self/stat; the comm field can
  // contain spaces and parens, so parse after the *last* ')'.
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  if (std::FILE* f = std::fopen("/proc/self/stat", "r")) {
    char buf[1024];
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    if (const char* close_paren = std::strrchr(buf, ')')) {
      // Fields after ") ": state is field 3; utime is 14, stime 15,
      // starttime 22 (1-based over the whole line).
      unsigned long long utime = 0;
      unsigned long long stime = 0;
      unsigned long long starttime = 0;
      const int got = std::sscanf(
          close_paren + 2,
          "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu %*d %*d "
          "%*d %*d %*d %*d %llu",
          &utime, &stime, &starttime);
      if (got == 3 && ticks > 0) {
        ps.cpu_seconds_total = static_cast<double>(utime + stime) / ticks;
        // Uptime of the process = system uptime - starttime.
        if (std::FILE* u = std::fopen("/proc/uptime", "r")) {
          double sys_uptime = 0.0;
          if (std::fscanf(u, "%lf", &sys_uptime) == 1) {
            ps.uptime_seconds =
                sys_uptime - static_cast<double>(starttime) / ticks;
            if (ps.uptime_seconds < 0) ps.uptime_seconds = 0;
          }
          std::fclose(u);
        }
        ps.available = true;
      }
    }
  }
  if (DIR* d = opendir("/proc/self/fd")) {
    int count = 0;
    while (readdir(d) != nullptr) ++count;
    closedir(d);
    // Minus ".", ".." and the directory fd itself.
    ps.open_fds = static_cast<double>(count > 3 ? count - 3 : 0);
    ps.available = true;
  }
  return ps;
}

#else  // !__linux__

ProcessStats read_process_stats() { return ProcessStats{}; }

#endif

}  // namespace tsmo::obs
