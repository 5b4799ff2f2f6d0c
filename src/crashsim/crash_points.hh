/**
 * @file
 * Crash-point representation for the crash-state exploration engine.
 *
 * A *crash point* is a place the exploration may cut the execution: an
 * ordering boundary (SFENCE / TX_END / strand join) and, optionally,
 * any CLF. At a crash point the durable state is not unique — every
 * flushed-but-unfenced line may independently have or have not reached
 * the persistence domain (x86 persistence semantics) — so one crash
 * point stands for up to 2^pending reachable post-crash images.
 *
 * The capture is *incremental*: instead of copying the pool image at
 * every boundary (O(pool size) each), the log stores one baseline
 * image plus, per crash point, the set of pending line snapshots at
 * that point. Because a boundary drains exactly its pending set into
 * durability, the pending sets double as the delta stream: the durable
 * base image at crash point k is the baseline with the pending sets of
 * all earlier draining points applied in order. Capture cost is
 * O(lines actually flushed), and ImageCursor reconstructs any point's
 * base image by rolling forward O(delta) from the previous one.
 */

#ifndef PMDB_CRASHSIM_CRASH_POINTS_HH
#define PMDB_CRASHSIM_CRASH_POINTS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/event.hh"

namespace pmdb
{

/** Exploration bounds and scheduling knobs. */
struct CrashsimOptions
{
    /**
     * Cap K on the pending lines enumerated per crash point. Points
     * with more pending lines enumerate subsets of the K highest-
     * priority lines (most recently flushed first) with the rest
     * dropped, plus the land-everything candidate.
     */
    std::size_t maxPendingLines = 12;

    /**
     * Cap on candidate images per crash point. When 2^K exceeds this,
     * the enumerator emits a structured subset (empty, full,
     * singletons, leave-one-outs) topped up with seeded random masks.
     */
    std::size_t maxImagesPerPoint = 256;

    /** Worker threads for the verification pass. */
    std::size_t workers = 1;

    /** Seed for the deterministic exploration schedule (rng.hh). */
    std::uint64_t seed = 1;

    /**
     * Treat epoch sections (transactions) as failure-atomic: crash
     * points inside an open epoch enumerate only the drop-all and
     * land-all images. The undo-log commit is single-drain (log
     * truncation and data flushes ride one fence, as libpmemobj's
     * ulog does), so partial landings *inside* the commit barrier can
     * reach states the log cannot recover — real torn-window states
     * that every transactional program on this substrate shares.
     * Coalescing them keeps clean workloads at zero findings; turn
     * this off for a Jaaru-style sweep that also surfaces the
     * single-drain window itself (see tests/test_crashsim.cc).
     */
    bool epochAtomic = true;

    /**
     * Also capture a crash point at every line a CLF queues for
     * writeback, not just at boundaries.
     */
    bool captureAtFlush = false;

    /** Cap on reported findings (applied after the deterministic merge). */
    std::size_t maxFindings = 64;
};

/** One captured pending-line snapshot (also the delta unit). */
struct CapturedLine
{
    /** Cache-line index (addr / cacheLineSize). */
    std::uint64_t line = 0;
    /** Sequence number of the CLF that queued this snapshot. */
    SeqNum flushSeq = 0;
    std::array<std::uint8_t, cacheLineSize> data{};
};

/** One crash point of a captured execution. */
struct CrashPoint
{
    /** Sequence number of the boundary event (crash provenance). */
    SeqNum seq = 0;
    EventKind boundary = EventKind::Fence;
    /** Point lies inside an open epoch section (transaction). */
    bool epochOpen = false;
    /** The boundary drains its pending set into durability. */
    bool drains = true;
    /**
     * Pending (flushed-but-unfenced) lines at this point:
     * [pendingBegin, pendingEnd) into CrashPointLog::lines, sorted by
     * line index.
     */
    std::size_t pendingBegin = 0;
    std::size_t pendingEnd = 0;
};

/**
 * Self-contained capture of an execution's crash points. Owns every
 * byte it needs, so exploration can run after the workload's pool and
 * runtime are gone (and on worker threads).
 */
struct CrashPointLog
{
    /** Size of the captured pool in bytes. */
    std::size_t poolBytes = 0;
    /**
     * Durable image at capture start (poolBytes long). An owner that
     * keeps the image elsewhere may move it out — the model checker
     * keeps it as an ImageDelta from its root image — and then builds
     * its ImageCursor from that base.
     */
    std::vector<std::uint8_t> baseline;
    /** Shared pool of pending-line snapshots, sliced per point. */
    std::vector<CapturedLine> lines;
    std::vector<CrashPoint> points;

    std::size_t pendingCount(const CrashPoint &point) const
    {
        return point.pendingEnd - point.pendingBegin;
    }
};

/**
 * A recovery verifier (Section 7.3): inspects a crash image (a full
 * copy of the pool as a crash would leave it) and returns an empty
 * string if the recovered state is consistent, or a description of the
 * semantic inconsistency otherwise. Verifiers outlive the pool they
 * check, so they capture everything they need by value.
 */
using RecoveryVerifier =
    std::function<std::string(const std::vector<std::uint8_t> &image)>;

/** One cache line of an image that differs from a reference image. */
struct DeltaLine
{
    /** Cache-line index (addr / cacheLineSize). */
    std::uint64_t line = 0;
    std::array<std::uint8_t, cacheLineSize> data{};
};

/** An image as the lines where it differs from a reference, in line order. */
using ImageDelta = std::vector<DeltaLine>;

/**
 * The lines where @p image differs from @p reference. Both must have
 * the same size, a whole number of cache lines (as device images do).
 */
ImageDelta imageDelta(const std::vector<std::uint8_t> &reference,
                      const std::vector<std::uint8_t> &image);

/**
 * Position-salted content hash of one cache line; XOR-combining the
 * old and new content hashes of every line transition yields an
 * order-independent, incrementally updatable image identity (used to
 * dedup candidate images across crash points).
 */
std::uint64_t lineContentHash(std::uint64_t line,
                              const std::uint8_t *bytes);

/**
 * Rolling reconstruction of durable base images over a CrashPointLog.
 *
 * advanceTo(k) costs O(pending lines drained between the current
 * position and k), not O(pool size); landing a candidate subset costs
 * O(subset). Each exploration worker owns one cursor.
 */
class ImageCursor
{
  public:
    /** A cursor whose base image is the log's baseline. */
    explicit ImageCursor(const CrashPointLog &log);

    /**
     * A cursor whose base image is @p root with @p delta landed on it,
     * for a log whose baseline is kept that way. The image is built in
     * @p storage, whose capacity is reused; releaseImage() hands it
     * back. Panics when @p root is not the log's pool size or a delta
     * line lies past its end.
     */
    ImageCursor(const CrashPointLog &log,
                const std::vector<std::uint8_t> &root,
                const ImageDelta &delta,
                std::vector<std::uint8_t> storage = {});

    /**
     * Move to crash point @p point_idx (forward-only), applying the
     * drained pending sets of every earlier draining point. Panics on
     * an index past the log's last point.
     */
    void advanceTo(std::size_t point_idx);

    std::size_t position() const { return at_; }

    /**
     * The image at the current point: the durable base after
     * advanceTo(), the candidate image between apply() and revert().
     */
    const std::vector<std::uint8_t> &image() const { return image_; }

    /** Identity hash of the current base image. */
    std::uint64_t baseHash() const { return hash_; }

    /**
     * Identity hash of the candidate image where the pending lines at
     * @p landed (indices into CrashPointLog::lines) land, without
     * materializing it.
     */
    std::uint64_t
    candidateHash(const std::vector<std::size_t> &landed) const;

    /** Land @p landed onto the image (revert() restores the base). */
    void apply(const std::vector<std::size_t> &landed);
    void revert();

    /** Hand the image's storage back; the cursor is unusable after. */
    std::vector<std::uint8_t> releaseImage() { return std::move(image_); }

  private:
    void applyLine(std::uint64_t line, const std::uint8_t *bytes);

    const CrashPointLog &log_;
    std::size_t at_ = 0;
    /** First point whose drained delta is not yet in image_. */
    std::size_t nextDelta_ = 0;
    std::vector<std::uint8_t> image_;
    std::uint64_t hash_ = 0;
    /** Saved base content of lines landed by apply(). */
    std::vector<CapturedLine> saved_;
};

/** Structural stats of a crash-point scan (no image contents). */
struct CrashScanSummary
{
    std::uint64_t events = 0;
    std::uint64_t crashPoints = 0;
    /** Points coalesced to drop-all/land-all by epochAtomic. */
    std::uint64_t epochCoalescedPoints = 0;
    std::uint64_t pendingLinesTotal = 0;
    std::size_t maxPendingAtPoint = 0;
    /** Candidate images a bounded enumeration would explore. */
    std::uint64_t imagesEnumerable = 0;
    /**
     * Ordering-boundary histogram: which event kind each crash point
     * hangs off (Fence / EpochEnd / JoinStrand, plus, when
     * captureAtFlush, one Flush point per line a CLF queues). Sums to
     * crashPoints.
     */
    std::uint64_t pointsAtFence = 0;
    std::uint64_t pointsAtEpochEnd = 0;
    std::uint64_t pointsAtJoinStrand = 0;
    std::uint64_t pointsAtFlush = 0;

    std::string toString() const;
};

/**
 * Candidate images the bounded enumerator generates for a crash point
 * with @p pending_lines pending and the given epoch state.
 */
std::uint64_t candidateCountFor(std::size_t pending_lines,
                                bool epoch_open,
                                const CrashsimOptions &options);

/**
 * Structural crash-point scan over a recorded event stream (.trc
 * replay). Trace events carry addresses but no store payloads, so a
 * trace cannot reconstruct image *contents* — this computes where the
 * crash points are and how many states a bounded exploration would
 * cover; full exploration with verifiers needs a live capture.
 */
CrashScanSummary scanCrashPoints(const std::vector<Event> &events,
                                 const CrashsimOptions &options = {});

} // namespace pmdb

#endif // PMDB_CRASHSIM_CRASH_POINTS_HH
