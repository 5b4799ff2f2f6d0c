/**
 * @file
 * Machine-readable bug-report rendering: JSON output for CI pipelines
 * and the CLI tools, mirroring the summary pmemcheck prints at exit.
 */

#ifndef PMDB_CORE_REPORT_HH
#define PMDB_CORE_REPORT_HH

#include <string>

#include "core/bug.hh"
#include "core/stats.hh"

namespace pmdb
{

/** Render a bug collection as a JSON document. */
std::string reportToJson(const BugCollector &bugs);

/** Render a bug collection plus bookkeeping statistics as JSON. */
std::string reportToJson(const BugCollector &bugs,
                         const DebuggerStats &stats);

} // namespace pmdb

#endif // PMDB_CORE_REPORT_HH
