// zdc_perfbench: runs one benchmark workload and prints its metrics.
//
//   zdc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every computed figure is printed as a "name value unit" line; the last
// line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one. Bad arguments exit with status 2.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

using zdc::perfbench::MetricSpec;
using zdc::perfbench::Options;
using zdc::perfbench::Report;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "zdc_perfbench: %s\nusage: zdc_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1\nworkloads:",
               why.c_str());
  for (const std::string& name : zdc::perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        o.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value, &used);
        have[1] = used == value.size();
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value, &used);
        have[2] = used == value.size() && o.seconds >= 1.0 &&
                  o.seconds <= 600.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have[3] = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  for (const bool h : have) {
    if (!h) usage("every flag is required, with a valid value");
  }
  return o;
}

/// Shortest text that reads back as exactly `x`.
std::string number(double x) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

const char* unit_of(const std::string& name) {
  for (const auto* catalog : {&zdc::perfbench::end_to_end_metrics(),
                              &zdc::perfbench::per_layer_metrics()}) {
    for (const MetricSpec& spec : *catalog) {
      if (name == spec.name) return spec.unit;
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  Report rep;
  try {
    rep = zdc::perfbench::run_workload(opts);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  const auto& reported = opts.trace ? zdc::perfbench::per_layer_metrics()
                                    : zdc::perfbench::end_to_end_metrics();
  std::string json;
  for (const MetricSpec& spec : reported) {
    const auto it = rep.values.find(spec.name);
    double value = it == rep.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      rep.fail(std::string(spec.name) + " is not a number");
      value = 0.0;
    }
    if (!opts.trace && value <= 0.0) {
      rep.fail(std::string(spec.name) + " was not measured");
    }
    json += json.empty() ? "\"" : ", \"";
    json += spec.name;
    json += "\": {\"value\": " + number(value) + ", \"unit\": \"";
    json += spec.unit;
    json += "\"}";
  }
  std::printf("workload %s seed %llu seconds %s trace %d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              number(opts.seconds).c_str(), opts.trace ? 1 : 0);
  for (const std::string& note : rep.notes) std::printf("%s\n", note.c_str());
  for (const auto& [name, value] : rep.values) {
    std::printf("%-34s %s %s\n", name.c_str(), number(value).c_str(),
                unit_of(name));
  }
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(rep.ops.attempted),
              static_cast<unsigned long long>(rep.ops.failed),
              rep.correct ? "true" : "false");
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      rep.correct ? "true" : "false",
      static_cast<unsigned long long>(rep.ops.attempted),
      static_cast<unsigned long long>(rep.ops.failed), json.c_str());
  return 0;
}
