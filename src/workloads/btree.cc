#include "workloads/btree.hh"

#include <cstring>

#include "common/rng.hh"
#include "crashsim/capture.hh"
#include "workloads/recovery_memory.hh"

namespace pmdb
{

PersistentBTree::PersistentBTree(PmemPool &pool, const FaultSet &faults,
                                 PmTestDetector *pmtest)
    : pool_(pool), faults_(faults), pmtest_(pmtest)
{
    meta_ = pool_.root(sizeof(Meta));
    pool_.registerVariable("btree.meta", meta_, sizeof(Meta));

    Meta meta = pool_.load<Meta>(meta_);
    if (meta.rootNode == 0) {
        Transaction tx(pool_);
        tx.begin();
        const Addr root = allocNode(tx, true);
        tx.addRange(meta_, sizeof(Meta));
        meta.rootNode = root;
        meta.count = 0;
        pool_.store(meta_, meta);
        tx.commit();
    }
}

Addr
PersistentBTree::allocNode(Transaction &tx, bool leaf)
{
    const Addr addr = tx.alloc(sizeof(Node));
    // tx.alloc zero-fills; set the leaf flag (covered by the commit
    // barrier via the allocation's registered range).
    pool_.store<std::uint32_t>(addr + offsetof(Node, isLeaf),
                               leaf ? 1 : 0);
    return addr;
}

void
PersistentBTree::splitChild(Transaction &tx, Addr parent_addr, int index)
{
    Node parent = pool_.load<Node>(parent_addr);
    const Addr child_addr = parent.children[index];
    Node child = pool_.load<Node>(child_addr);

    const Addr sibling_addr = allocNode(tx, child.isLeaf != 0);
    Node sibling = pool_.load<Node>(sibling_addr);

    const int mid = maxKeys / 2;
    sibling.nKeys = maxKeys - mid - 1;
    for (int i = 0; i < static_cast<int>(sibling.nKeys); ++i) {
        sibling.keys[i] = child.keys[mid + 1 + i];
        sibling.values[i] = child.values[mid + 1 + i];
    }
    if (!child.isLeaf) {
        for (int i = 0; i <= static_cast<int>(sibling.nKeys); ++i)
            sibling.children[i] = child.children[mid + 1 + i];
    }

    tx.addRange(child_addr, sizeof(Node));
    tx.addRange(parent_addr, sizeof(Node));

    const std::uint64_t up_key = child.keys[mid];
    const std::uint64_t up_val = child.values[mid];
    child.nKeys = mid;

    for (int i = parent.nKeys; i > index; --i) {
        parent.keys[i] = parent.keys[i - 1];
        parent.values[i] = parent.values[i - 1];
        parent.children[i + 1] = parent.children[i];
    }
    parent.keys[index] = up_key;
    parent.values[index] = up_val;
    parent.children[index + 1] = sibling_addr;
    ++parent.nKeys;

    pool_.store(sibling_addr, sibling);
    pool_.store(child_addr, child);
    pool_.store(parent_addr, parent);
}

void
PersistentBTree::insertNonFull(Transaction &tx, Addr node_addr,
                               std::uint64_t key, std::uint64_t value)
{
    Node node = pool_.load<Node>(node_addr);

    // Update in place if the key exists at this node.
    for (int i = 0; i < static_cast<int>(node.nKeys); ++i) {
        if (node.keys[i] == key) {
            tx.addRange(node_addr, sizeof(Node));
            node.values[i] = value;
            pool_.store(node_addr, node);
            return;
        }
    }

    if (node.isLeaf) {
        if (tx.addRange(node_addr, sizeof(Node)) && pmtest_)
            pmtest_->txChecker(node_addr, sizeof(Node));
        if (faults_.active("btree_double_log")) {
            // Re-log part of the already-logged node: a second,
            // overlapping undo entry (PMDK dedups only exact ranges).
            if (tx.addRange(node_addr + 8, 16) && pmtest_)
                pmtest_->txChecker(node_addr + 8, 16);
        }
        int i = node.nKeys - 1;
        while (i >= 0 && node.keys[i] > key) {
            node.keys[i + 1] = node.keys[i];
            node.values[i + 1] = node.values[i];
            --i;
        }
        node.keys[i + 1] = key;
        node.values[i + 1] = value;
        ++node.nKeys;
        pool_.store(node_addr, node);

        Meta meta = pool_.load<Meta>(meta_);
        ++meta.count;
        if (!faults_.active("btree_skip_log_meta"))
            tx.addRange(meta_, sizeof(Meta));
        pool_.store(meta_, meta);
        return;
    }

    int i = node.nKeys - 1;
    while (i >= 0 && node.keys[i] > key)
        --i;
    ++i;
    {
        Node child = pool_.load<Node>(node.children[i]);
        if (static_cast<int>(child.nKeys) == maxKeys) {
            splitChild(tx, node_addr, i);
            node = pool_.load<Node>(node_addr);
            if (node.keys[i] < key)
                ++i;
            else if (node.keys[i] == key) {
                tx.addRange(node_addr, sizeof(Node));
                node.values[i] = value;
                pool_.store(node_addr, node);
                return;
            }
        }
    }
    insertNonFull(tx, node.children[i], key, value);
}

void
PersistentBTree::insert(std::uint64_t key, std::uint64_t value)
{
    if (pmtest_)
        pmtest_->pmTestStart();

    Transaction tx(pool_);
    tx.begin();

    Meta meta = pool_.load<Meta>(meta_);
    Node root = pool_.load<Node>(meta.rootNode);
    if (static_cast<int>(root.nKeys) == maxKeys) {
        // Grow the tree: new root with the old root as only child.
        const Addr new_root = allocNode(tx, false);
        Node fresh = pool_.load<Node>(new_root);
        fresh.children[0] = meta.rootNode;
        pool_.store(new_root, fresh);

        tx.addRange(meta_, sizeof(Meta));
        meta.rootNode = new_root;
        pool_.store(meta_, meta);
        splitChild(tx, new_root, 0);
    }
    insertNonFull(tx, pool_.load<Meta>(meta_).rootNode, key, value);

    if (faults_.active("btree_persist_in_tx")) {
        // The data_store/create_hashmap bug pattern (Figure 9b): a
        // pmemobj-persist inside the epoch inserts a redundant fence.
        pool_.persist(meta_, sizeof(Meta));
    }

    tx.commit();

    if (pmtest_) {
        pmtest_->isPersist(meta_, sizeof(Meta));
        pmtest_->pmTestEnd();
    }
}

std::optional<std::uint64_t>
PersistentBTree::lookup(std::uint64_t key) const
{
    Meta meta = pool_.load<Meta>(meta_);
    Addr node_addr = meta.rootNode;
    while (node_addr != 0) {
        Node node = pool_.load<Node>(node_addr);
        int i = 0;
        while (i < static_cast<int>(node.nKeys) && node.keys[i] < key)
            ++i;
        if (i < static_cast<int>(node.nKeys) && node.keys[i] == key)
            return node.values[i];
        if (node.isLeaf)
            return std::nullopt;
        node_addr = node.children[i];
    }
    return std::nullopt;
}

std::uint64_t
PersistentBTree::count() const
{
    return pool_.load<Meta>(meta_).count;
}

namespace
{

/** Walk state for the structural check. */
template <typename Memory>
struct BTreeWalk
{
    const Memory &memory;
    std::uint64_t reachable = 0;
    std::uint64_t visited = 0;
    std::string error;

    void node(Addr addr, int depth)
    {
        using Node = PersistentBTree::Node;
        if (!error.empty())
            return;
        if (addr == 0 || addr % 8 != 0 ||
            addr + sizeof(Node) > memory.size()) {
            error = "b_tree recovery: node pointer out of bounds";
            return;
        }
        if (depth > 64 || ++visited > (1u << 20)) {
            error = "b_tree recovery: tree walk diverges (cycle?)";
            return;
        }
        const Node n = memory.template load<Node>(addr);
        if (n.nKeys > PersistentBTree::maxKeys) {
            error = "b_tree recovery: node key count corrupt";
            return;
        }
        for (std::uint32_t i = 1; i < n.nKeys; ++i) {
            if (n.keys[i - 1] >= n.keys[i]) {
                error = "b_tree recovery: node keys out of order";
                return;
            }
        }
        reachable += n.nKeys;
        if (!n.isLeaf) {
            for (std::uint32_t i = 0; i <= n.nKeys; ++i)
                node(n.children[i], depth + 1);
        }
    }
};

template <typename Memory>
std::string
verifyBTree(const Memory &memory, Addr meta_addr)
{
    using Meta = PersistentBTree::Meta;
    if (meta_addr + sizeof(Meta) > memory.size())
        return "b_tree recovery: metadata out of bounds";
    const Meta meta = memory.template load<Meta>(meta_addr);
    if (meta.rootNode == 0)
        return "b_tree recovery: root pointer lost";
    BTreeWalk<Memory> walk{memory, 0, 0, {}};
    walk.node(meta.rootNode, 0);
    if (!walk.error.empty())
        return walk.error;
    if (walk.reachable != meta.count) {
        return "b_tree recovery: reachable keys (" +
               std::to_string(walk.reachable) +
               ") disagree with durable count (" +
               std::to_string(meta.count) + ")";
    }
    return "";
}

} // namespace

RecoveryVerifier
btreeRecoveryVerifier(Addr meta_addr, TxRecovery::TxLogRegion log_region)
{
    return [meta_addr,
            log_region](const std::vector<std::uint8_t> &image)
               -> std::string {
        std::uint64_t log_bytes = 0;
        if (log_region.base + sizeof(log_bytes) <= image.size()) {
            std::memcpy(&log_bytes, image.data() + log_region.base,
                        sizeof(log_bytes));
        }
        if (log_bytes == 0)
            return verifyBTree(ImageMemory{image}, meta_addr);
        // A crash mid-transaction: run undo-log recovery first, on a
        // private copy (the exploration shares the image across
        // candidates).
        std::vector<std::uint8_t> recovered = image;
        TxRecovery::rollbackImage(log_region.base, log_region.size,
                                  recovered);
        return verifyBTree(ImageMemory{recovered}, meta_addr);
    };
}

std::string
btreeRecoveryVerdict(const PmemPool &pool, Addr meta_addr)
{
    return verifyBTree(PoolMemory{pool}, meta_addr);
}

void
BTreeWorkload::run(PmRuntime &runtime, const WorkloadOptions &options)
{
    std::size_t pool_bytes = options.poolBytes;
    if (pool_bytes == 0)
        pool_bytes = std::max<std::size_t>(16 << 20,
                                           options.operations * 768);
    PmemPool pool(runtime, pool_bytes, "b_tree.pool",
                  options.trackPersistence);
    PersistentBTree tree(pool, options.faults, options.pmtest);

    if (options.crashsim) {
        options.crashsim->adopt(
            pool.device(),
            btreeRecoveryVerifier(tree.metaAddr(),
                                  TxRecovery::logRegionOf(pool)));
    }

    Rng rng(options.seed);
    for (std::size_t i = 0; i < options.operations; ++i) {
        runtime.appOp();
        tree.insert(rng.next(), i);
    }

    runtime.programEnd();
}

} // namespace pmdb
