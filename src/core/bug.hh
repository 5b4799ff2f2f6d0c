/**
 * @file
 * Bug taxonomy and reporting.
 *
 * The ten bug types of Table 6: five common to all persistency models
 * (Section 4.5), four specific to relaxed models (Section 5.2), plus
 * cross-failure semantic bugs (Section 7.3).
 */

#ifndef PMDB_CORE_BUG_HH
#define PMDB_CORE_BUG_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace pmdb
{

/** The ten crash-consistency bug types of Table 6. */
enum class BugType : std::uint8_t
{
    /** A PM location is not persisted after its last write (§4.5). */
    NoDurability,
    /** Same location written again before its durability is guaranteed. */
    MultipleOverwrite,
    /** Required persist order between two variables is violated. */
    NoOrderGuarantee,
    /** A location is flushed again before the nearest fence (perf bug). */
    RedundantFlush,
    /** A CLF that persists no prior store (perf bug). */
    FlushNothing,
    /** A data object logged more than once in one transaction (perf bug). */
    RedundantLogging,
    /** Locations updated in an epoch are not durable at epoch end. */
    LackDurabilityInEpoch,
    /** More than one fence inside an epoch section (perf bug). */
    RedundantEpochFence,
    /** Cross-strand persists violate a required order. */
    LackOrderingInStrands,
    /** Recovery reads semantically inconsistent (non-durable) data. */
    CrossFailureSemantic,
};

/** Number of distinct bug types. */
constexpr int bugTypeCount = 10;

/** Short name used in reports and the Table 6 harness. */
const char *toString(BugType type);

/** Distinguishes the two causes of a NoDurability report. */
enum class DurabilityCause : std::uint8_t
{
    NotApplicable,
    /** Location was never flushed: the program is missing a CLF. */
    MissingFlush,
    /** Location was flushed but never fenced: missing a fence. */
    MissingFence,
};

/** One detected bug occurrence. */
struct BugReport
{
    BugType type = BugType::NoDurability;
    /** PM range the bug concerns (empty for e.g. redundant epoch fence). */
    AddrRange range;
    /** Event sequence number at which the bug was detected. */
    SeqNum seq = 0;
    DurabilityCause cause = DurabilityCause::NotApplicable;
    /** Human-readable explanation. */
    std::string detail;
    /**
     * Optional *stable* context a rule attaches to distinguish
     * same-site reports (e.g. the constraint pair of an ordering rule).
     * Unlike @ref detail it must not embed run-dependent data (sequence
     * numbers, counts): it is hashed into the bug's fingerprint.
     */
    std::string context;

    std::string toString() const;
};

/**
 * Stable identity of a bug site: rule id + canonicalized address range
 * + a hash of the rule's stable context (durability cause plus
 * BugReport::context). Two detections of the same program bug — in the
 * same run, across replays of the same trace, or across a trace and its
 * minimized witness — produce equal fingerprints, while the detection
 * seq and prose detail are deliberately excluded. This is the
 * minimizer's "same bug still present?" oracle and the dedup key of
 * BugCollector.
 */
struct BugFingerprint
{
    BugType type = BugType::NoDurability;
    /** Canonical half-open range; empty ranges normalize to [0, 0). */
    Addr start = 0;
    Addr end = 0;
    std::uint64_t contextHash = 0;

    auto operator<=>(const BugFingerprint &) const = default;

    /** Combined 64-bit hash (for unordered containers / caches). */
    std::uint64_t hash() const;

    /** Stable text form: "<rule>@0x<start>+<size>#<context hash>". */
    std::string toString() const;
};

/** Hasher keying unordered containers by BugFingerprint::hash(). */
struct BugFingerprintHash
{
    std::size_t
    operator()(const BugFingerprint &fingerprint) const
    {
        return static_cast<std::size_t>(fingerprint.hash());
    }
};

/** Compute the fingerprint of a report. */
BugFingerprint fingerprintOf(const BugReport &report);

/**
 * Collects bug reports, deduplicating repeat detections of the same
 * fingerprint so that loops do not inflate bug counts: a "bug" in the
 * Table 6 sense is a unique program site.
 */
class BugCollector
{
  public:
    /** Record a detection; returns true if this is a new site. */
    bool report(const BugReport &report);

    const std::vector<BugReport> &bugs() const { return bugs_; }

    /** Move the unique reports out, in report order, and clear. */
    std::vector<BugReport> takeBugs();

    /** Unique sites of @p type. */
    std::size_t countOf(BugType type) const;

    /** Unique sites across all types. */
    std::size_t total() const { return bugs_.size(); }

    /** Total detections including deduplicated repeats. */
    std::uint64_t occurrences() const { return occurrences_; }

    bool hasAny(BugType type) const { return countOf(type) > 0; }

    /** Whether a bug with exactly this fingerprint was reported. */
    bool has(const BugFingerprint &fingerprint) const
    {
        return sites_.count(fingerprint) > 0;
    }

    /** The report behind @p fingerprint, or null. */
    const BugReport *find(const BugFingerprint &fingerprint) const;

    /** Fingerprints of all unique sites, in report order. */
    std::vector<BugFingerprint> fingerprints() const;

    void clear();

    /** Render a pmemcheck-style bug summary. */
    std::string summary() const;

  private:
    /** Unique reports in report order (the output order). */
    std::vector<BugReport> bugs_;
    /** Fingerprint → index into bugs_. */
    std::unordered_map<BugFingerprint, std::size_t, BugFingerprintHash>
        sites_;
    std::uint64_t occurrences_ = 0;
};

} // namespace pmdb

#endif // PMDB_CORE_BUG_HH
