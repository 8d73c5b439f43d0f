#include "obs/sinks.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace rpr::obs {

namespace {

void write_file(const std::string& path, const std::string& contents,
                const char* who) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error(std::string(who) + ": cannot open " + path);
  f << contents;
  if (!f) throw std::runtime_error(std::string(who) + ": write failed");
}

/// JSON number that round-trips inf/nan (not representable) as null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out.precision(15);
  out << v;
  return out.str();
}

void append_span_args(std::ostringstream& out, const Span& s) {
  out << "\"bytes\":" << s.bytes;
  if (s.op >= 0) out << ",\"op\":" << s.op;
  if (s.slice >= 0) out << ",\"slice\":" << s.slice;
  if (s.stall_ns > 0) out << ",\"stall_ns\":" << s.stall_ns;
  for (const auto& [key, value] : s.args) {
    out << ",\"" << json_escape(key) << "\":" << json_number(value);
  }
}

/// Span indices sorted by start time (stable, so same-timestamp records
/// keep insertion order). Perfetto's importer wants monotonic timestamps.
std::vector<std::size_t> spans_by_time(const Recorder& rec) {
  std::vector<std::size_t> order(rec.spans().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rec.spans()[a].start_ns < rec.spans()[b].start_ns;
                   });
  return order;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

std::string to_chrome_trace(const Recorder& rec) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
  };

  // Track-name metadata: Chrome renders tid rows sorted by tid, so dense
  // node ids group racks together automatically.
  for (const auto& [track, name] : rec.track_names()) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << track
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(name) << "\"}}";
  }

  // Spans are emitted in timestamp order (producers append out of order:
  // the simulators by task id, the real engines by completion).
  for (const std::size_t idx : spans_by_time(rec)) {
    const Span& s = rec.spans()[idx];
    if (s.dur_ns == 0) continue;  // zero-length: invisible anyway
    sep();
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
        << ",\"ts\":" << s.start_ns / 1000 << ",\"dur\":" << s.dur_ns / 1000
        << ",\"name\":\"" << json_escape(s.name) << "\"";
    if (!s.category.empty()) {
      out << ",\"cat\":\"" << json_escape(s.category) << "\"";
    }
    out << ",\"args\":{";
    append_span_args(out, s);
    out << "}}";
  }

  // Causal edges become flow arrows: an "s" (start) event at the source
  // span's end, an "f" (finish, bp:"e") at the destination's start, tied
  // by a shared flow id. Perfetto then draws the slice/op chains.
  if (!rec.flows().empty()) {
    std::unordered_map<SpanId, std::size_t> span_of;
    span_of.reserve(rec.spans().size());
    for (std::size_t i = 0; i < rec.spans().size(); ++i) {
      const SpanId id = rec.spans()[i].span_id;
      if (id != 0) span_of.emplace(id, i);
    }
    std::uint64_t flow_id = 0;
    for (const Flow& f : rec.flows()) {
      const auto from = span_of.find(f.from);
      const auto to = span_of.find(f.to);
      ++flow_id;
      if (from == span_of.end() || to == span_of.end()) continue;
      const Span& a = rec.spans()[from->second];
      const Span& b = rec.spans()[to->second];
      sep();
      out << "{\"ph\":\"s\",\"pid\":1,\"tid\":" << a.track
          << ",\"ts\":" << (a.start_ns + a.dur_ns) / 1000
          << ",\"id\":" << flow_id << ",\"name\":\"dep\",\"cat\":\"flow\"}";
      sep();
      out << "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":" << b.track
          << ",\"ts\":" << b.start_ns / 1000 << ",\"id\":" << flow_id
          << ",\"name\":\"dep\",\"cat\":\"flow\"}";
    }
  }

  for (const Event& e : rec.events()) {
    sep();
    out << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << e.track
        << ",\"ts\":" << e.time_ns / 1000 << ",\"s\":\"t\",\"name\":\""
        << json_escape(e.name) << "\"}";
  }

  for (const Sample& s : rec.samples()) {
    sep();
    out << "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":" << s.time_ns / 1000
        << ",\"name\":\"" << json_escape(s.series)
        << "\",\"args\":{\"value\":" << json_number(s.value) << "}}";
  }

  out << "]}";
  return out.str();
}

void write_chrome_trace(const Recorder& rec, const std::string& path) {
  write_file(path, to_chrome_trace(rec), "write_chrome_trace");
}

std::string to_json(const MetricsRegistry& reg) {
  std::ostringstream counters, gauges, histograms;
  bool first_c = true, first_g = true, first_h = true;
  for (const std::string& name : reg.names()) {
    if (const Counter* c = reg.find_counter(name)) {
      if (!first_c) counters << ",";
      first_c = false;
      counters << "\"" << json_escape(name) << "\":" << c->value();
    } else if (const Gauge* g = reg.find_gauge(name)) {
      if (!first_g) gauges << ",";
      first_g = false;
      gauges << "\"" << json_escape(name) << "\":" << json_number(g->value());
    } else if (const MaxGauge* m = reg.find_max_gauge(name)) {
      // Max gauges are gauges to every consumer; the CAS-max semantics
      // only matter at write time.
      if (!first_g) gauges << ",";
      first_g = false;
      gauges << "\"" << json_escape(name) << "\":" << json_number(m->value());
    } else if (const Histogram* h = reg.find_histogram(name)) {
      if (!first_h) histograms << ",";
      first_h = false;
      histograms << "\"" << json_escape(name) << "\":{\"bounds\":[";
      const auto& bounds = h->bounds();
      for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (i) histograms << ",";
        histograms << json_number(bounds[i]);
      }
      histograms << "],\"counts\":[";
      const auto counts = h->bucket_counts();
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i) histograms << ",";
        histograms << counts[i];
      }
      histograms << "],\"count\":" << h->count()
                 << ",\"sum\":" << json_number(h->sum())
                 << ",\"min\":" << json_number(h->min())
                 << ",\"max\":" << json_number(h->max())
                 << ",\"mean\":" << json_number(h->mean())
                 << ",\"p50\":" << json_number(h->quantile(0.50))
                 << ",\"p95\":" << json_number(h->quantile(0.95))
                 << ",\"p99\":" << json_number(h->quantile(0.99)) << "}";
    }
  }
  return "{\"counters\":{" + counters.str() + "},\"gauges\":{" +
         gauges.str() + "},\"histograms\":{" + histograms.str() + "}}";
}

void write_json(const MetricsRegistry& reg, const std::string& path) {
  write_file(path, to_json(reg), "obs::write_json");
}

std::string to_csv(const MetricsRegistry& reg) {
  std::ostringstream out;
  out << "kind,name,field,value\n";
  // CSV-quote names (they may contain commas in label-ish suffixes).
  auto q = [](const std::string& s) { return "\"" + s + "\""; };
  for (const std::string& name : reg.names()) {
    if (const Counter* c = reg.find_counter(name)) {
      out << "counter," << q(name) << ",value," << c->value() << "\n";
    } else if (const Gauge* g = reg.find_gauge(name)) {
      out << "gauge," << q(name) << ",value," << json_number(g->value())
          << "\n";
    } else if (const MaxGauge* m = reg.find_max_gauge(name)) {
      out << "max_gauge," << q(name) << ",value," << json_number(m->value())
          << "\n";
    } else if (const Histogram* h = reg.find_histogram(name)) {
      const auto& bounds = h->bounds();
      const auto counts = h->bucket_counts();
      for (std::size_t i = 0; i < counts.size(); ++i) {
        out << "histogram," << q(name) << ",le=";
        if (i < bounds.size()) {
          out << json_number(bounds[i]);
        } else {
          out << "+inf";
        }
        out << "," << counts[i] << "\n";
      }
      out << "histogram," << q(name) << ",count," << h->count() << "\n";
      out << "histogram," << q(name) << ",sum," << json_number(h->sum())
          << "\n";
      if (h->count() > 0) {
        out << "histogram," << q(name) << ",min," << json_number(h->min())
            << "\n";
        out << "histogram," << q(name) << ",max," << json_number(h->max())
            << "\n";
        out << "histogram," << q(name) << ",mean," << json_number(h->mean())
            << "\n";
        out << "histogram," << q(name) << ",p50,"
            << json_number(h->quantile(0.50)) << "\n";
        out << "histogram," << q(name) << ",p95,"
            << json_number(h->quantile(0.95)) << "\n";
        out << "histogram," << q(name) << ",p99,"
            << json_number(h->quantile(0.99)) << "\n";
      }
    }
  }
  return out.str();
}

void write_csv(const MetricsRegistry& reg, const std::string& path) {
  write_file(path, to_csv(reg), "obs::write_csv");
}

}  // namespace rpr::obs
