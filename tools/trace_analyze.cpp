// trace_analyze — offline causal analysis of a trace written by the sim.
//
//   trace_analyze --in trace.json [--flows flows.jsonl] [--out report.json]
//                 [--top 10]
//
// --in accepts either sink format (Chrome trace-event document or JSONL
// causal log; the format is sniffed). --flows ingests a link-record JSONL
// dump from the adversary LinkObserver; the flows are cross-referenced
// against the span chains by correlation id and reported in a "flows"
// section. The report goes to --out, or stdout when --out is empty. See
// src/obs/trace_analysis.hpp for what the report contains; the output is
// byte-deterministic for a given trace, so reports can be committed as
// goldens and diffed across runs.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/config.hpp"
#include "obs/trace_analysis.hpp"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return static_cast<bool>(in) || in.eof();
}

}  // namespace

int main(int argc, char** argv) {
  p2panon::FlagSet flags;
  auto& in_path = flags.add_string(
      "in", "", "trace file to analyze (Chrome trace JSON or JSONL)");
  auto& flows_path = flags.add_string(
      "flows", "", "link-record JSONL (adversary FlowLog dump) to join in");
  auto& out_path = flags.add_string(
      "out", "", "write the report here (empty = stdout)");
  auto& top_n = flags.add_int("top", 10, "slowest chains to list in full");
  flags.parse(argc, argv);
  if (in_path.empty()) {
    std::fprintf(stderr, "missing --in <trace file>\n%s",
                 flags.usage(argv[0]).c_str());
    return 2;
  }

  std::string text;
  if (!read_file(in_path, text)) {
    std::fprintf(stderr, "cannot read %s\n", in_path.c_str());
    return 1;
  }
  p2panon::obs::ParsedTrace trace = p2panon::obs::parse_trace(text);
  if (!flows_path.empty()) {
    std::string flow_text;
    if (!read_file(flows_path, flow_text)) {
      std::fprintf(stderr, "cannot read %s\n", flows_path.c_str());
      return 1;
    }
    p2panon::obs::parse_flows_jsonl(flow_text, trace);
  }
  if (trace.records.empty() && trace.flows.empty()) {
    std::fprintf(stderr,
                 "%s: no trace records or link flows recognized "
                 "(%zu skipped)\n",
                 in_path.c_str(), trace.skipped);
    return 1;
  }

  p2panon::obs::AnalyzerOptions options;
  options.top_n = top_n > 0 ? static_cast<std::size_t>(top_n) : 0;
  const std::string report = p2panon::obs::analyze_trace(trace, options);

  if (out_path.empty()) {
    std::fputs(report.c_str(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << report << '\n';
  if (!out) {
    std::fprintf(stderr, "short write to %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "trace_analyze: %zu records -> %s\n",
               trace.records.size(), out_path.c_str());
  return 0;
}
