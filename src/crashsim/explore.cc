#include "crashsim/explore.hh"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/stopwatch.hh"
#include "core/debugger.hh"

namespace pmdb
{
namespace
{

/** One candidate image scheduled for verification. */
struct WorkItem
{
    std::size_t pointIdx = 0;
    std::size_t candidateIndex = 0;
    /** Landed pending lines, as indices into CrashPointLog::lines. */
    std::vector<std::size_t> landed;
};

} // namespace

/**
 * Candidate subsets for one crash point, in deterministic enumeration
 * order. Lines are prioritized by flush recency (ties: line index), so
 * the cap keeps the writebacks most likely to be in flight at a real
 * crash.
 */
std::vector<std::vector<std::size_t>>
enumerateCrashCandidates(const CrashPointLog &log, const CrashPoint &point,
                         const CrashsimOptions &options, bool *truncated)
{
    const std::size_t begin = point.pendingBegin;
    const std::size_t n = log.pendingCount(point);
    std::vector<std::vector<std::size_t>> out;
    if (truncated)
        *truncated = false;

    if (point.epochOpen && options.epochAtomic) {
        // Inside a transaction the logging machinery provides failure
        // atomicity; enumerate only its two recoverable outcomes.
        out.push_back({});
        if (n > 0) {
            std::vector<std::size_t> all(n);
            for (std::size_t i = 0; i < n; ++i)
                all[i] = begin + i;
            out.push_back(std::move(all));
        }
        return out;
    }

    std::vector<std::size_t> priority(n);
    for (std::size_t i = 0; i < n; ++i)
        priority[i] = begin + i;
    std::sort(priority.begin(), priority.end(),
              [&](std::size_t a, std::size_t b) {
                  const CapturedLine &la = log.lines[a];
                  const CapturedLine &lb = log.lines[b];
                  if (la.flushSeq != lb.flushSeq)
                      return la.flushSeq > lb.flushSeq;
                  return la.line < lb.line;
              });

    const std::size_t k = std::min(n, options.maxPendingLines);
    const std::size_t budget =
        std::max<std::size_t>(1, options.maxImagesPerPoint);
    const bool capped = n > k;
    if (truncated && capped)
        *truncated = true;

    std::set<std::uint64_t> seen_masks;
    bool full_all_added = false;
    auto add_mask = [&](std::uint64_t mask) {
        if (out.size() >= budget)
            return;
        if (!seen_masks.insert(mask).second)
            return;
        std::vector<std::size_t> landed;
        for (std::size_t i = 0; i < k; ++i) {
            if (mask >> i & 1)
                landed.push_back(priority[i]);
        }
        out.push_back(std::move(landed));
    };
    auto add_full_all = [&]() {
        // The land-everything image, including lines beyond the cap.
        if (out.size() >= budget || full_all_added)
            return;
        full_all_added = true;
        std::vector<std::size_t> all(n);
        for (std::size_t i = 0; i < n; ++i)
            all[i] = begin + i;
        out.push_back(std::move(all));
    };

    if (k < 62 && (1ULL << k) + (capped ? 1 : 0) <= budget) {
        // Exhaustive: every subset of the (capped) pending set.
        for (std::uint64_t mask = 0; mask < (1ULL << k); ++mask)
            add_mask(mask);
        if (capped)
            add_full_all();
        return out;
    }

    // Bounded: structured candidates first, seeded random masks after.
    // The budget is below the subset count, so the point is truncated
    // by construction.
    if (truncated)
        *truncated = true;
    const std::uint64_t ones =
        k >= 62 ? ~0ULL : ((1ULL << k) - 1);
    add_mask(0);
    if (capped)
        add_full_all();
    else
        add_mask(ones);
    for (std::size_t i = 0; i < k; ++i)
        add_mask(1ULL << i);
    for (std::size_t i = 0; i < k; ++i)
        add_mask(ones ^ (1ULL << i));
    Rng rng(mix64(options.seed) ^ mix64(point.seq + 1));
    for (std::size_t attempts = budget * 16;
         out.size() < budget && attempts > 0; --attempts)
        add_mask(rng.next() & ones);
    return out;
}

namespace
{

/**
 * Greedily shrink a failing landed set: drop each line whose removal
 * keeps the verifier failing. @p landed is in priority order, so the
 * witness prefers recently-flushed lines.
 */
std::vector<std::size_t>
minimizeWitness(ImageCursor &cursor,
                const RecoveryVerifier &verify,
                std::vector<std::size_t> landed, std::string &detail,
                std::uint64_t &verifies)
{
    for (std::size_t i = 0; i < landed.size();) {
        std::vector<std::size_t> trial;
        trial.reserve(landed.size() - 1);
        for (std::size_t j = 0; j < landed.size(); ++j) {
            if (j != i)
                trial.push_back(landed[j]);
        }
        cursor.apply(trial);
        const std::string msg = verify(cursor.image());
        cursor.revert();
        ++verifies;
        if (!msg.empty()) {
            landed = std::move(trial);
            detail = msg;
        } else {
            ++i;
        }
    }
    return landed;
}

} // namespace

CrashsimResult
exploreCrashPoints(const CrashPointLog &log,
                   const RecoveryVerifier &verify,
                   const CrashsimOptions &options, PmDebugger *debugger)
{
    Stopwatch watch;
    CrashsimResult result;
    CrashsimStats &stats = result.stats;

    // Sequential pre-pass: enumerate and dedup candidate images by
    // identity hash. Running it single-threaded makes the kept set —
    // and therefore every downstream report — independent of the
    // worker count.
    std::vector<WorkItem> items;
    {
        ImageCursor cursor(log);
        std::unordered_set<std::uint64_t> seen;
        for (std::size_t p = 0; p < log.points.size(); ++p) {
            const CrashPoint &point = log.points[p];
            cursor.advanceTo(p);
            ++stats.points;
            stats.pendingLines += log.pendingCount(point);
            if (point.epochOpen && options.epochAtomic)
                ++stats.epochCoalescedPoints;
            bool truncated = false;
            auto candidates =
                enumerateCrashCandidates(log, point, options, &truncated);
            if (truncated)
                ++stats.truncatedPoints;
            for (std::size_t c = 0; c < candidates.size(); ++c) {
                ++stats.imagesEnumerated;
                const std::uint64_t hash =
                    candidates[c].empty()
                        ? cursor.baseHash()
                        : cursor.candidateHash(candidates[c]);
                if (!seen.insert(hash).second) {
                    ++stats.imagesDeduped;
                    continue;
                }
                if (verify) {
                    items.push_back(
                        {p, c, std::move(candidates[c])});
                }
            }
        }
    }
    stats.imagesVerified = items.size();

    // Verification pass: contiguous chunks of the deterministic work
    // list, one rolling cursor per worker. Findings are collected per
    // worker and concatenated in chunk order, so the merged list is in
    // (point, candidate) order for any worker count.
    const std::size_t workers = std::max<std::size_t>(
        1, std::min(options.workers, std::max<std::size_t>(
                                         1, items.size())));
    std::vector<std::vector<CrashsimFinding>> found(workers);
    std::vector<std::uint64_t> min_verifies(workers, 0);

    auto run_chunk = [&](std::size_t w, std::size_t begin,
                         std::size_t end) {
        ImageCursor cursor(log);
        for (std::size_t i = begin; i < end; ++i) {
            const WorkItem &item = items[i];
            cursor.advanceTo(item.pointIdx);
            cursor.apply(item.landed);
            std::string msg = verify(cursor.image());
            cursor.revert();
            if (msg.empty())
                continue;
            std::vector<std::size_t> witness = minimizeWitness(
                cursor, verify, item.landed, msg, min_verifies[w]);
            CrashsimFinding finding;
            finding.pointIndex = item.pointIdx;
            finding.seq = log.points[item.pointIdx].seq;
            finding.boundary = log.points[item.pointIdx].boundary;
            finding.candidateIndex = item.candidateIndex;
            finding.detail = std::move(msg);
            for (std::size_t idx : witness)
                finding.witnessLines.push_back(log.lines[idx].line);
            std::sort(finding.witnessLines.begin(),
                      finding.witnessLines.end());
            found[w].push_back(std::move(finding));
        }
    };

    const std::size_t chunk = (items.size() + workers - 1) / workers;
    parallelFor(workers, workers, [&](std::size_t w) {
        const std::size_t begin = w * chunk;
        const std::size_t end = std::min(items.size(), begin + chunk);
        if (begin < end)
            run_chunk(w, begin, end);
    });

    for (std::size_t w = 0; w < workers; ++w) {
        stats.minimizeVerifies += min_verifies[w];
        for (CrashsimFinding &finding : found[w])
            result.findings.push_back(std::move(finding));
    }
    if (result.findings.size() > options.maxFindings)
        result.findings.resize(options.maxFindings);

    if (debugger) {
        for (const CrashsimFinding &finding : result.findings) {
            BugReport report;
            report.type = BugType::CrossFailureSemantic;
            report.seq = finding.seq;
            if (!finding.witnessLines.empty()) {
                report.range = AddrRange::fromSize(
                    finding.witnessLines.front() * cacheLineSize,
                    cacheLineSize);
            }
            std::string where = " [crash point: ";
            where += toString(finding.boundary);
            where += " seq ";
            where += std::to_string(finding.seq);
            where += ", witness lines:";
            if (finding.witnessLines.empty()) {
                where += " none (durable base state)";
            } else {
                for (std::uint64_t line : finding.witnessLines) {
                    where += ' ';
                    where += std::to_string(line);
                }
            }
            where += ']';
            report.detail = finding.detail + where;
            debugger->reportBug(report);
        }
    }

    result.exploreSeconds = watch.elapsedSeconds();
    return result;
}

} // namespace pmdb
