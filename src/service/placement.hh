/**
 * @file
 * Pluggable session-to-shard placement.
 *
 * A session is pinned to one shard for its whole life (its
 * allocations and operation state live in that shard's RimeLibrary),
 * so placement happens once, at session open.  The policy sees a load
 * snapshot of every shard and returns the shard index to pin to; a
 * SessionConfig may skip the policy entirely with an explicit
 * shard.
 */

#ifndef RIME_SERVICE_PLACEMENT_HH
#define RIME_SERVICE_PLACEMENT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace rime::service
{

/** Load snapshot of one shard at placement time. */
struct ShardLoad
{
    unsigned shard = 0;
    /** Sessions currently pinned to the shard. */
    std::size_t sessions = 0;
    /** Requests queued in the shard's submission queue (racy). */
    std::size_t queueDepth = 0;
    /** Shard is evacuating (health-driven failover): never place. */
    bool draining = false;
};

/** Picks the shard a new session is pinned to. */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;
    virtual const char *name() const = 0;
    /** @return the chosen shard index (< loads.size()) */
    virtual unsigned place(std::span<const ShardLoad> loads) = 0;
    /**
     * Keyed placement: `key` identifies the session (tenant hash,
     * session key, ...) so a policy can place deterministically by
     * identity instead of by arrival order.  Policies that do not
     * care about identity fall back to place().
     */
    virtual unsigned
    place(std::span<const ShardLoad> loads, std::uint64_t /*key*/)
    {
        return place(loads);
    }
};

// ----------------------------------------------------------------------
// Hashing building blocks (shared by the in-process placement policies
// and the cluster router's instance placement)
// ----------------------------------------------------------------------

/** FNV-1a over a byte string: the tree's deterministic key hash. */
inline std::uint64_t
placementHash(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** splitmix64: cheap, deterministic integer mix for ring points. */
inline std::uint64_t
placementMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * A consistent-hash ring over small integer node ids.  Each node
 * contributes `vnodes` deterministic points (mixes of node and
 * replica, no RNG), so two rings built from the same membership are
 * identical across processes and runs.  Adding or removing one node
 * of N moves only the keys whose ring arc changed -- on average K/N
 * of K keys -- and every moved key lands on (join) or leaves (leave)
 * exactly the changed node.
 */
class HashRing
{
  public:
    static constexpr unsigned kDefaultVnodes = 64;

    void
    addNode(unsigned node, unsigned vnodes = kDefaultVnodes)
    {
        for (unsigned r = 0; r < vnodes; ++r) {
            points_.push_back(
                {placementMix((static_cast<std::uint64_t>(node) << 32) |
                              r),
                 node});
        }
        std::sort(points_.begin(), points_.end());
    }

    void
    removeNode(unsigned node)
    {
        std::erase_if(points_, [node](const Point &p) {
            return p.node == node;
        });
    }

    bool empty() const { return points_.empty(); }
    std::size_t points() const { return points_.size(); }

    /** Owning node of `key`: first ring point clockwise from it. */
    unsigned
    lookup(std::uint64_t key) const
    {
        const auto it = std::lower_bound(
            points_.begin(), points_.end(),
            Point{placementMix(key), 0},
            [](const Point &a, const Point &b) {
                return a.hash < b.hash;
            });
        return it == points_.end() ? points_.front().node : it->node;
    }

    /**
     * Nodes in ring order starting at `key`'s owner, deduplicated:
     * the deterministic fallback sequence when the owner cannot take
     * the key (draining, over its load bound, unhealthy).
     */
    std::vector<unsigned>
    preferenceOrder(std::uint64_t key) const
    {
        std::vector<unsigned> order;
        if (points_.empty())
            return order;
        auto it = std::lower_bound(
            points_.begin(), points_.end(),
            Point{placementMix(key), 0},
            [](const Point &a, const Point &b) {
                return a.hash < b.hash;
            });
        for (std::size_t n = 0; n < points_.size(); ++n, ++it) {
            if (it == points_.end())
                it = points_.begin();
            if (std::find(order.begin(), order.end(), it->node) ==
                order.end()) {
                order.push_back(it->node);
            }
        }
        return order;
    }

  private:
    struct Point
    {
        std::uint64_t hash = 0;
        unsigned node = 0;
        bool
        operator<(const Point &o) const
        {
            return hash != o.hash ? hash < o.hash : node < o.node;
        }
    };
    std::vector<Point> points_;
};

/** Cycle through the shards in open order. */
class RoundRobinPlacement : public PlacementPolicy
{
  public:
    const char *name() const override { return "round-robin"; }

    unsigned
    place(std::span<const ShardLoad> loads) override
    {
        // Skip draining shards; fall back to the raw pick when every
        // shard is evacuating (the caller has no better option).
        for (std::size_t i = 0; i < loads.size(); ++i) {
            const unsigned pick =
                next_++ % static_cast<unsigned>(loads.size());
            if (!loads[pick].draining)
                return pick;
        }
        return next_++ % static_cast<unsigned>(loads.size());
    }

  private:
    unsigned next_ = 0;
};

/**
 * Consistent-hash placement with a least-loaded fallback.  The keyed
 * place() hashes the session key onto a ring over the shard indices
 * (rebuilt only when the shard count changes), so a given key maps to
 * the same shard across runs and across processes; when the owner is
 * draining the key falls through the ring's preference order, and
 * when every ring pick drains it degrades to the least-loaded shard
 * (deterministic lowest-index tie-break).  The unkeyed place() -- a
 * caller with no identity to hash -- uses least-loaded directly.
 */
class ConsistentHashPlacement : public PlacementPolicy
{
  public:
    explicit ConsistentHashPlacement(
        unsigned vnodes = HashRing::kDefaultVnodes)
        : vnodes_(vnodes)
    {
    }

    const char *name() const override { return "consistent-hash"; }

    unsigned
    place(std::span<const ShardLoad> loads) override
    {
        return leastLoaded(loads);
    }

    unsigned
    place(std::span<const ShardLoad> loads,
          std::uint64_t key) override
    {
        rebuildIfNeeded(loads.size());
        for (const unsigned pick : ring_.preferenceOrder(key)) {
            if (pick < loads.size() && !loads[pick].draining)
                return pick;
        }
        return leastLoaded(loads);
    }

  private:
    void
    rebuildIfNeeded(std::size_t shards)
    {
        if (shards == ringShards_)
            return;
        ring_ = HashRing{};
        for (unsigned i = 0; i < shards; ++i)
            ring_.addNode(i, vnodes_);
        ringShards_ = shards;
    }

    static unsigned
    leastLoaded(std::span<const ShardLoad> loads)
    {
        unsigned best = 0;
        bool have = false;
        for (unsigned i = 0; i < loads.size(); ++i) {
            if (loads[i].draining)
                continue;
            if (!have ||
                loads[i].sessions < loads[best].sessions ||
                (loads[i].sessions == loads[best].sessions &&
                 loads[i].queueDepth < loads[best].queueDepth)) {
                best = i;
                have = true;
            }
        }
        return best; // 0 when every shard drains: caller's fallback
    }

    const unsigned vnodes_;
    HashRing ring_;
    std::size_t ringShards_ = 0;
};

/** Pick the shard with the fewest pinned sessions. */
class LeastSessionsPlacement : public PlacementPolicy
{
  public:
    const char *name() const override { return "least-sessions"; }

    unsigned
    place(std::span<const ShardLoad> loads) override
    {
        unsigned best = 0;
        bool have = false;
        for (unsigned i = 0; i < loads.size(); ++i) {
            if (loads[i].draining)
                continue;
            if (!have || loads[i].sessions < loads[best].sessions) {
                best = i;
                have = true;
            }
        }
        return best; // 0 when every shard drains: caller's fallback
    }
};

} // namespace rime::service

#endif // RIME_SERVICE_PLACEMENT_HH
