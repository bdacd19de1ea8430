/**
 * @file
 * Structured diagnostics for the static analysis suite: a Diagnostic is one
 * finding (severity, checker id, location, message, optional notes) and an
 * AnalysisReport collects every finding a run of the checkers produced.
 *
 * Checkers never abort on malformed input — anything a corrupted or forged
 * program can exhibit becomes a Diagnostic, so the suite is safe to run over
 * untrusted artifacts loaded from disk (tools/partir_lint).
 */
#ifndef PARTIR_ANALYSIS_DIAGNOSTICS_H_
#define PARTIR_ANALYSIS_DIAGNOSTICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace partir {
namespace analysis {

/** Finding severity. Errors make a report fail; warnings/notes do not. */
enum class Severity {
  kError,
  kWarning,
  kNote,
};

/** Returns the printable name of a severity ("error" / "warning" / "note"). */
const char* SeverityName(Severity severity);

/** One static-analysis finding. */
struct Diagnostic {
  Severity severity = Severity::kError;
  /** Stable checker id, e.g. "collective-deadlock" or "memory-plan". */
  std::string checker_id;
  /** Op / instruction / site the finding is anchored to, e.g. "op 12
   *  (all_reduce)" (OpLocation) or "device 2 instruction 7". Empty if
   *  global. */
  std::string location;
  std::string message;
  /** Secondary lines: witnesses, counterexample paths, suggestions. */
  std::vector<std::string> notes;

  /** "error[collective-deadlock] at <location>: <message>" + note lines. */
  std::string ToString() const;
};

/** The collected output of one analysis run. */
struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;
  /** Ids of every checker that ran (even the clean ones), in run order. */
  std::vector<std::string> checkers_run;

  /** Appends a diagnostic and returns it for adding notes. */
  Diagnostic& Add(Severity severity, std::string checker_id,
                  std::string location, std::string message);
  Diagnostic& Error(std::string checker_id, std::string location,
                    std::string message);
  Diagnostic& Warning(std::string checker_id, std::string location,
                      std::string message);
  Diagnostic& Note(std::string checker_id, std::string location,
                   std::string message);

  int64_t errors() const;
  int64_t warnings() const;
  /** True when no diagnostics at all were produced (notes included). */
  bool clean() const { return diagnostics.empty(); }
  /** True when no *errors* were produced (warnings allowed). */
  bool ok() const { return errors() == 0; }

  /** True if any diagnostic carries the given checker id. */
  bool HasChecker(const std::string& checker_id) const;

  /** Appends everything from `other` into this report. */
  void Merge(const AnalysisReport& other);

  /** Human-readable summary: one line per diagnostic plus a count footer. */
  std::string ToString() const;
};

}  // namespace analysis
}  // namespace partir

#endif  // PARTIR_ANALYSIS_DIAGNOSTICS_H_
