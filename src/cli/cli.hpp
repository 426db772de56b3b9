#pragma once
// rvhpc::cli — shared command-line plumbing for the repo's tools.
//
// rvhpc-lint and rvhpc-profile (and future CLIs) route their --help and
// --version output through these helpers so the tools stay consistent:
// one version string sourced from the CMake project version, one help
// layout, one place to change either.

#include <iosfwd>
#include <string>

namespace rvhpc::cli {

/// Static identity of one CLI tool.
struct ToolInfo {
  std::string name;      ///< "rvhpc-profile"
  std::string one_line;  ///< what the tool does, for the help header
  std::string usage;     ///< full usage block (no trailing newline needed)
};

/// The library version ("1.0.0"), from the CMake project version.
[[nodiscard]] std::string version_string();

/// "name (rvhpc <version>)".
void print_version(std::ostream& os, const ToolInfo& tool);

/// Help header + usage block.
void print_help(std::ostream& os, const ToolInfo& tool);

/// Handles a leading --help/-h/--version anywhere in argv: prints the
/// matching output to `os` and returns true (caller exits 0).  Returns
/// false when neither flag is present.
[[nodiscard]] bool handle_standard_flags(int argc, char** argv,
                                         const ToolInfo& tool,
                                         std::ostream& os);

/// The one sentence every tool's usage block uses for --jobs, so the flag
/// reads identically everywhere:
///   "  --jobs=N     worker threads (0 = every hardware thread)"
[[nodiscard]] std::string jobs_flag_help();

/// Parses a non-negative decimal integer flag value ("16384") into `out`.
/// Returns false on empty input, garbage, or a negative/overflowing value
/// — the shared guts of every --queue=/--cache-capacity=/--connect=PORT
/// style flag, so each tool rejects bad numbers identically.
[[nodiscard]] bool parse_size(const std::string& text, std::size_t& out);

/// Scans argv for `--jobs=N` and records it as the process's worker count
/// (engine::set_default_jobs), which sizes every default-jobs batch and the
/// engine's process pool: N > 0 uses exactly N threads (up to 4096),
/// N == 0 uses every hardware thread
/// (std::thread::hardware_concurrency) — the same semantics on every
/// binary.  Returns the effective worker count applied, 0 when the flag is
/// absent or malformed.  Other arguments are left untouched.
int apply_jobs_flag(int argc, char** argv);

}  // namespace rvhpc::cli
