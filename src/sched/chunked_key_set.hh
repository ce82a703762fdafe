/**
 * @file
 * The dispatch engine's ordered (key, id) set: the ready set and the
 * doom set of sched::OnlineScheduler.
 *
 * Items are kept in std::pair order — exactly the order a
 * std::set<std::pair<double, std::size_t>> gives them — in
 * consecutive sorted arrays ("chunks") of at most kChunk items. A
 * lookup binary-searches the chunks' last items, then the chunk. A
 * chunk that grows past kChunk splits in two halves, and a chunk that
 * empties is dropped, so the set never holds an empty chunk. Dropped
 * chunks keep their storage in a spare pool, so a set that has reached
 * its peak size allocates nothing more: not per insert, not per
 * re-key, not when it empties and refills.
 *
 * No operation moves more than about kChunk items (rekeyAll, which
 * rebuilds the set, aside). That keeps the set at least as fast as a
 * red-black tree when thousands of frames share a key, where one flat
 * sorted array shifts the whole tie band on every insert, and faster
 * than a tree at the handful of frames a serving ready set holds,
 * where a re-key shifts a few items instead of relinking and
 * rebalancing a node.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace herald::sched
{

class ChunkedKeySet
{
  public:
    using Item = std::pair<double, std::size_t>;

    /** Most items a chunk holds between operations. */
    static constexpr std::size_t kChunk = 64;

    bool empty() const { return chunks.empty(); }
    std::size_t size() const { return count; }

    /** The smallest item; the set must not be empty. */
    const Item &front() const { return chunks.front().front(); }

    /** The first item not less than @p item, or null if none. */
    const Item *
    lowerBound(const Item &item) const
    {
        const std::size_t c = chunkOf(item);
        if (c == chunks.size())
            return nullptr;
        const Chunk &ch = chunks[c];
        return &*std::lower_bound(ch.begin(), ch.end(), item);
    }

    /** Add @p item, which must not be in the set. */
    void
    insert(const Item &item)
    {
        ++count;
        if (chunks.empty()) {
            chunks.push_back(spareChunk());
            chunks.back().push_back(item);
            return;
        }
        // Past every item: it extends the last chunk.
        const std::size_t c =
            std::min(chunkOf(item), chunks.size() - 1);
        Chunk &ch = chunks[c];
        ch.insert(std::lower_bound(ch.begin(), ch.end(), item), item);
        if (ch.size() > kChunk)
            split(c);
    }

    /** Remove @p item, which must be in the set. */
    void
    erase(const Item &item)
    {
        --count;
        const std::size_t c = chunkOf(item);
        Chunk &ch = chunks[c];
        ch.erase(std::lower_bound(ch.begin(), ch.end(), item));
        if (ch.empty()) {
            spare.push_back(std::move(ch));
            chunks.erase(chunks.begin() +
                         static_cast<std::ptrdiff_t>(c));
        }
    }

    /**
     * Replace @p item, which must be in the set, by (@p key,
     * item.second). When the new item still falls between the
     * neighbouring chunks it stays in its chunk and only the items
     * between its old and new place shift; otherwise it is an erase
     * plus an insert.
     */
    void
    rekey(const Item &item, double key)
    {
        const Item moved{key, item.second};
        const std::size_t c = chunkOf(item);
        Chunk &ch = chunks[c];
        const bool stays =
            (c == 0 || chunks[c - 1].back() < moved) &&
            (c + 1 == chunks.size() || moved < chunks[c + 1].front());
        if (!stays) {
            erase(item);
            insert(moved);
            return;
        }
        const auto at = std::lower_bound(ch.begin(), ch.end(), item);
        if (moved < item) {
            const auto to = std::lower_bound(ch.begin(), at, moved);
            std::move_backward(to, at, at + 1);
            *to = moved;
        } else {
            const auto past = std::lower_bound(at + 1, ch.end(), moved);
            std::move(at + 1, past, at);
            *(past - 1) = moved;
        }
    }

    /**
     * Re-key every item to (@p key_of(id), id) and rebuild the set:
     * recompute, sort, rechunk. Called with ids in set order.
     */
    template <class KeyOf>
    void
    rekeyAll(KeyOf key_of)
    {
        flat.clear();
        for (Chunk &ch : chunks) {
            for (const Item &it : ch)
                flat.emplace_back(key_of(it.second), it.second);
            ch.clear();
            spare.push_back(std::move(ch));
        }
        chunks.clear();
        std::sort(flat.begin(), flat.end());
        for (std::size_t i = 0; i < flat.size(); i += kChunk) {
            chunks.push_back(spareChunk());
            chunks.back().assign(
                flat.begin() + static_cast<std::ptrdiff_t>(i),
                flat.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(i + kChunk, flat.size())));
        }
    }

    /** Call @p fn on every item, in order. */
    template <class Fn>
    void
    forEach(Fn fn) const
    {
        for (const Chunk &ch : chunks)
            for (const Item &it : ch)
                fn(it);
    }

  private:
    using Chunk = std::vector<Item>;

    std::vector<Chunk> chunks; //!< sorted, none empty
    std::vector<Chunk> spare;  //!< dropped chunks, storage kept
    std::vector<Item> flat;    //!< rekeyAll's scratch
    std::size_t count = 0;

    /** The first chunk whose last item is not less than @p item. */
    std::size_t
    chunkOf(const Item &item) const
    {
        return static_cast<std::size_t>(
            std::partition_point(chunks.begin(), chunks.end(),
                                 [&](const Chunk &ch) {
                                     return ch.back() < item;
                                 }) -
            chunks.begin());
    }

    /** An empty chunk with room for kChunk + 1 items. */
    Chunk
    spareChunk()
    {
        if (spare.empty()) {
            Chunk ch;
            ch.reserve(kChunk + 1);
            return ch;
        }
        Chunk ch = std::move(spare.back());
        spare.pop_back();
        return ch;
    }

    /** Move the upper half of overfull chunk @p c into a new chunk. */
    void
    split(std::size_t c)
    {
        Chunk upper = spareChunk();
        Chunk &ch = chunks[c];
        const auto mid = ch.begin() + static_cast<std::ptrdiff_t>(
                                          ch.size() / 2);
        upper.assign(mid, ch.end());
        ch.erase(mid, ch.end());
        chunks.insert(chunks.begin() + static_cast<std::ptrdiff_t>(c + 1),
                      std::move(upper));
    }
};

} // namespace herald::sched
