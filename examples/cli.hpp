#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

// Shared --help convention for the examples/ CLIs (and the scripts/
// check_cli_help.py conformance test):
//
//   usage: <program> [flags] ...        one or more usage lines
//   <one-paragraph overview>
//   flags:
//     --name <arg>   one-line description
//
// Contract every CLI follows:
//  * -h / --help prints the table to stdout and exits 0, wherever it
//    appears (flags parsed before it must still be valid — the
//    conformance test probes each documented flag as `--flag VALUE
//    --help`);
//  * an unrecognized token starting with '-' prints
//    "<program>: unknown flag: <token>" to stderr and exits 2;
//  * value-flag placeholders use a small fixed vocabulary (<path>, <n>,
//    <float>, <str>, <addr>) so the conformance test can
//    synthesize a parseable probe value for any flag; a flag that takes
//    several argv tokens lists one placeholder per token (repeated
//    numeric placeholders probe with increasing values, so range-shaped
//    flags parse).

namespace doda::cli {

struct Flag {
  std::string name;  // "--seed"
  std::string arg;   // "<n>", or "" for a boolean flag
  std::string help;  // one line
};

struct HelpSpec {
  std::string program;
  std::vector<std::string> usage;  // without the "usage: " prefix
  std::string overview;            // one short paragraph
  std::vector<Flag> flags;
};

inline void printHelp(std::ostream& out, const HelpSpec& spec) {
  for (std::size_t i = 0; i < spec.usage.size(); ++i)
    out << (i == 0 ? "usage: " : "       ") << spec.usage[i] << "\n";
  out << "\n" << spec.overview << "\n";
  if (spec.flags.empty()) return;
  out << "\nflags:\n";
  std::size_t width = 0;
  for (const Flag& flag : spec.flags) {
    const std::size_t w =
        flag.name.size() + (flag.arg.empty() ? 0 : flag.arg.size() + 1);
    width = std::max(width, w);
  }
  for (const Flag& flag : spec.flags) {
    std::string head = flag.name;
    if (!flag.arg.empty()) head += " " + flag.arg;
    out << "  " << head << std::string(width - head.size() + 2, ' ')
        << flag.help << "\n";
  }
}

inline bool isHelpFlag(const std::string& token) {
  return token == "-h" || token == "--help";
}

/// Prints help and exits 0 — call when the parse loop meets -h/--help.
[[noreturn]] inline void exitWithHelp(const HelpSpec& spec) {
  printHelp(std::cout, spec);
  std::exit(0);
}

[[noreturn]] inline void unknownFlag(const HelpSpec& spec,
                                     const std::string& token) {
  std::cerr << spec.program << ": unknown flag: " << token << "\n"
            << "try '" << spec.program << " --help'\n";
  std::exit(2);
}

[[noreturn]] inline void usageError(const HelpSpec& spec,
                                    const std::string& message) {
  std::cerr << spec.program << ": " << message << "\n"
            << "try '" << spec.program << " --help'\n";
  std::exit(2);
}

/// Fetches the value token of a value flag; errors out when it is missing.
inline std::string flagValue(const HelpSpec& spec, int argc, char** argv,
                             int& i, const std::string& flag) {
  if (i + 1 >= argc) usageError(spec, flag + " needs a value");
  return argv[++i];
}

inline std::uint64_t parseUint(const HelpSpec& spec, const std::string& flag,
                               const std::string& text) {
  try {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(text, &used, 0);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    usageError(spec, flag + ": not a number: '" + text + "'");
  }
}

inline double parseDouble(const HelpSpec& spec, const std::string& flag,
                          const std::string& text) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    usageError(spec, flag + ": not a number: '" + text + "'");
  }
}

}  // namespace doda::cli
