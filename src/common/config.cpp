#include "common/config.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/strings.hpp"

namespace p2panon {

std::int64_t& FlagSet::add_int(const std::string& name, std::int64_t def,
                               const std::string& help) {
  Flag& f = flags_[name];
  f.kind = Kind::Int;
  f.help = help;
  f.int_value = def;
  return f.int_value;
}

double& FlagSet::add_double(const std::string& name, double def,
                            const std::string& help) {
  Flag& f = flags_[name];
  f.kind = Kind::Double;
  f.help = help;
  f.double_value = def;
  return f.double_value;
}

bool& FlagSet::add_bool(const std::string& name, bool def,
                        const std::string& help) {
  Flag& f = flags_[name];
  f.kind = Kind::Bool;
  f.help = help;
  f.bool_value = def;
  return f.bool_value;
}

std::string& FlagSet::add_string(const std::string& name,
                                 const std::string& def,
                                 const std::string& help) {
  Flag& f = flags_[name];
  f.kind = Kind::String;
  f.help = help;
  f.string_value = def;
  return f.string_value;
}

bool FlagSet::set_from_string(Flag& flag, const std::string& value) {
  try {
    switch (flag.kind) {
      case Kind::Int:
        flag.int_value = std::stoll(value);
        return true;
      case Kind::Double:
        flag.double_value = std::stod(value);
        return true;
      case Kind::Bool: {
        const std::string lower = to_lower(value);
        const bool yes = lower == "true" || lower == "1" || lower == "yes";
        if (!yes && lower != "false" && lower != "0" && lower != "no") {
          return false;
        }
        flag.bool_value = yes;
        return true;
      }
      case Kind::String:
        flag.string_value = value;
        return true;
    }
  } catch (const std::exception&) {
    // std::stoll / std::stod: not a number, or out of range.
  }
  return false;
}

namespace {

[[noreturn]] void exit_with_usage(const std::string& error,
                                  const std::string& usage) {
  std::fprintf(stderr, "%s\n%s", error.c_str(), usage.c_str());
  std::exit(2);
}

std::map<std::string, std::string>& mutable_last_parsed_flags() {
  static std::map<std::string, std::string> flags;
  return flags;
}

}  // namespace

const std::map<std::string, std::string>& last_parsed_flags() {
  return mutable_last_parsed_flags();
}

void FlagSet::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", usage(argv[0]).c_str());
      std::exit(0);
    }
    if (!starts_with(arg, "--")) {
      exit_with_usage("unexpected argument: " + arg, usage(argv[0]));
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      exit_with_usage("unknown flag --" + name, usage(argv[0]));
    }
    Flag& flag = it->second;
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (flag.kind == Kind::Bool) {
      flag.bool_value = true;
      continue;
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      exit_with_usage("missing value for --" + name, usage(argv[0]));
    }
    if (!set_from_string(flag, value)) {
      exit_with_usage("bad value for --" + name + ": " + value,
                      usage(argv[0]));
    }
  }
  auto& snapshot = mutable_last_parsed_flags();
  snapshot.clear();
  for (const auto& [name, flag] : flags_) {
    std::ostringstream value;
    switch (flag.kind) {
      case Kind::Int: value << flag.int_value; break;
      case Kind::Double: value << flag.double_value; break;
      case Kind::Bool: value << (flag.bool_value ? "true" : "false"); break;
      case Kind::String: value << flag.string_value; break;
    }
    snapshot[name] = value.str();
  }
}

std::string FlagSet::usage(const std::string& program) const {
  std::ostringstream out;
  out << "Usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << "  (";
    switch (flag.kind) {
      case Kind::Int: out << "int, default " << flag.int_value; break;
      case Kind::Double: out << "double, default " << flag.double_value; break;
      case Kind::Bool: out << "bool, default " << (flag.bool_value ? "true" : "false"); break;
      case Kind::String: out << "string, default \"" << flag.string_value << "\""; break;
    }
    out << ") " << flag.help << "\n";
  }
  return out.str();
}

double bench_scale() {
  const char* env = std::getenv("P2PANON_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  if (v <= 0.0 || v > 1.0) return 1.0;
  return v;
}

std::size_t scaled_runs(std::int64_t seeds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(seeds) * bench_scale()));
}

}  // namespace p2panon
