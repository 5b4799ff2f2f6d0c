#include "core/bug.hh"

#include <cstdio>
#include <sstream>

#include "common/rng.hh"
#include "telemetry/metrics.hh"

namespace pmdb
{

const char *
toString(BugType type)
{
    switch (type) {
      case BugType::NoDurability:          return "no-durability";
      case BugType::MultipleOverwrite:     return "multiple-overwrite";
      case BugType::NoOrderGuarantee:      return "no-order-guarantee";
      case BugType::RedundantFlush:        return "redundant-flush";
      case BugType::FlushNothing:          return "flush-nothing";
      case BugType::RedundantLogging:      return "redundant-logging";
      case BugType::LackDurabilityInEpoch: return "lack-durability-in-epoch";
      case BugType::RedundantEpochFence:   return "redundant-epoch-fence";
      case BugType::LackOrderingInStrands: return "lack-ordering-in-strands";
      case BugType::CrossFailureSemantic:  return "cross-failure-semantic";
    }
    return "unknown";
}

std::string
BugReport::toString() const
{
    std::ostringstream out;
    out << pmdb::toString(type);
    if (!range.empty())
        out << " at " << range.toString();
    if (cause == DurabilityCause::MissingFlush)
        out << " (missing CLF)";
    else if (cause == DurabilityCause::MissingFence)
        out << " (missing fence)";
    if (!detail.empty())
        out << ": " << detail;
    out << " [seq " << seq << "]";
    return out.str();
}

std::uint64_t
BugFingerprint::hash() const
{
    std::uint64_t h = fnv1a(&type, sizeof(type));
    h = fnv1a(&start, sizeof(start), h);
    h = fnv1a(&end, sizeof(end), h);
    h = fnv1a(&contextHash, sizeof(contextHash), h);
    return h;
}

std::string
BugFingerprint::toString() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s@0x%llx+%llu#%08llx",
                  pmdb::toString(type),
                  static_cast<unsigned long long>(start),
                  static_cast<unsigned long long>(end - start),
                  static_cast<unsigned long long>(contextHash));
    return buf;
}

BugFingerprint
fingerprintOf(const BugReport &report)
{
    BugFingerprint fp;
    fp.type = report.type;
    if (!report.range.empty()) {
        fp.start = report.range.start;
        fp.end = report.range.end;
    }
    // Context = the rule's stable discriminators only. The prose detail
    // and detection seq are excluded on purpose: they shift when a
    // trace is sliced or replayed, and the fingerprint must not.
    const auto cause = static_cast<std::uint8_t>(report.cause);
    std::uint64_t h = fnv1a(&cause, sizeof(cause));
    h = fnv1a(report.context.data(), report.context.size(), h);
    fp.contextHash = h & 0xffffffffULL; // 32 bits read fine in reports
    return fp;
}

bool
BugCollector::report(const BugReport &report)
{
    ++occurrences_;
    auto [it, inserted] =
        sites_.try_emplace(fingerprintOf(report), bugs_.size());
    if (!inserted)
        return false;
    bugs_.push_back(report);
    if (telemetry::enabled()) {
        static telemetry::Counter &reported =
            telemetry::Registry::global().counter(
                "detector.bugs_reported");
        reported.add(1);
    }
    return true;
}

const BugReport *
BugCollector::find(const BugFingerprint &fingerprint) const
{
    auto it = sites_.find(fingerprint);
    return it == sites_.end() ? nullptr : &bugs_[it->second];
}

std::vector<BugReport>
BugCollector::takeBugs()
{
    std::vector<BugReport> bugs = std::move(bugs_);
    clear();
    return bugs;
}

std::vector<BugFingerprint>
BugCollector::fingerprints() const
{
    std::vector<BugFingerprint> fps;
    fps.reserve(bugs_.size());
    for (const BugReport &bug : bugs_)
        fps.push_back(fingerprintOf(bug));
    return fps;
}

std::size_t
BugCollector::countOf(BugType type) const
{
    std::size_t n = 0;
    for (const auto &bug : bugs_) {
        if (bug.type == type)
            ++n;
    }
    return n;
}

void
BugCollector::clear()
{
    bugs_.clear();
    sites_.clear();
    occurrences_ = 0;
}

std::string
BugCollector::summary() const
{
    std::ostringstream out;
    out << "Bug summary: " << bugs_.size() << " unique site(s), "
        << occurrences_ << " detection(s)\n";
    for (int t = 0; t < bugTypeCount; ++t) {
        const auto type = static_cast<BugType>(t);
        const std::size_t n = countOf(type);
        if (n)
            out << "  " << pmdb::toString(type) << ": " << n << "\n";
    }
    for (const auto &bug : bugs_)
        out << "  - " << bug.toString() << "\n";
    return out.str();
}

} // namespace pmdb
