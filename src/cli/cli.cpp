#include "cli/cli.hpp"

#include <cstdlib>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>

#include "engine/thread_pool.hpp"

#ifndef RVHPC_VERSION
#define RVHPC_VERSION "0.0.0"
#endif

namespace rvhpc::cli {

std::string version_string() { return RVHPC_VERSION; }

void print_version(std::ostream& os, const ToolInfo& tool) {
  os << tool.name << " (rvhpc " << version_string() << ")\n";
}

void print_help(std::ostream& os, const ToolInfo& tool) {
  os << tool.name << " — " << tool.one_line << "\n\n"
     << tool.usage << "\n\n"
     << "Standard options:\n"
        "  --help, -h   show this help and exit\n"
        "  --version    show \"" << tool.name << " (rvhpc "
     << version_string() << ")\" and exit\n";
}

bool handle_standard_flags(int argc, char** argv, const ToolInfo& tool,
                           std::ostream& os) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(os, tool);
      return true;
    }
    if (arg == "--version") {
      print_version(os, tool);
      return true;
    }
  }
  return false;
}

bool parse_size(const std::string& text, std::size_t& out) {
  if (text.empty()) return false;
  try {
    std::size_t consumed = 0;
    const long long v = std::stoll(text, &consumed);
    if (v < 0 || consumed != text.size()) return false;
    out = static_cast<std::size_t>(v);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::string jobs_flag_help() {
  return "  --jobs=N     worker threads (0 = every hardware thread)";
}

int apply_jobs_flag(int argc, char** argv) {
  constexpr std::string_view kFlag = "--jobs=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind(kFlag, 0) != 0) continue;
    char* end = nullptr;
    const std::string value(arg.substr(kFlag.size()));
    const long jobs = std::strtol(value.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || value.empty()) continue;
    if (jobs == 0) {
      // --jobs=0 = "every hardware thread", uniformly across binaries.
      const unsigned hw = std::thread::hardware_concurrency();
      const int effective = hw > 0 ? static_cast<int>(hw) : 1;
      engine::set_default_jobs(effective);
      return effective;
    }
    if (jobs > 0 && jobs <= 4096) {
      engine::set_default_jobs(static_cast<int>(jobs));
      return static_cast<int>(jobs);
    }
  }
  return 0;
}

}  // namespace rvhpc::cli
