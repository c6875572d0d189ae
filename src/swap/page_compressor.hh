/**
 * @file
 * The compressed-size oracle.
 *
 * Every compression in the simulator runs a real codec over real
 * synthesized bytes. PageCompressor::sizeAll() is the one way to size
 * compressed units of 1..N pages: each unit's pages' contents,
 * concatenated in order and framed with the unit's chunk size.
 * size() sizes a batch of one.
 *
 * Sizes are looked up before any page is materialized, in a SizeTable
 * keyed on exactly what decides the bytes: codec, chunk size, and for
 * every page in order its (pfn, version) and a tag standing for its
 * uid plus the uid's content inputs (PageContentSource::
 * contentInputs). Keys hold no page bytes and a hit needs full key
 * equality, so under the source's purity contract a hit returns what
 * a fresh compression would: reports are byte-identical whether the
 * table hits or not.
 *
 * A fleet worker owns one table beside its PageArena and hands it to
 * every session it runs, so a unit sized in one session is a lookup in
 * every later one. Reuse is the common case: schemes recompress the
 * same hot pages on every app switch, and Ariadne re-forms most of its
 * multi-page cold units session after session. With no shared table
 * (compress_memo = off) each compressor owns one, and reuse stays
 * within the session.
 *
 * A batch looks its units up in order on the calling thread, then runs
 * the codec for its misses, on a fleet worker's CodecPool when the
 * compressor has one (codec_pool.hh), and stores them in order. Hits,
 * misses and table contents after the batch are exactly those of
 * sizing its units one at a time, so a reclaim pass sized as one batch
 * reports the same bytes and the same compressor.* counts.
 */

#ifndef ARIADNE_SWAP_PAGE_COMPRESSOR_HH
#define ARIADNE_SWAP_PAGE_COMPRESSOR_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "compress/chunked.hh"
#include "compress/codec.hh"
#include "mem/page.hh"

namespace ariadne
{

class CodecPool;

/** Reference to one page's content. */
struct PageRef
{
    PageKey key;
    std::uint32_t version = 0;
};

/** One compressed unit to size: @p pages framed in chunkBytes chunks. */
struct SizeRequest
{
    std::span<const PageRef> pages;
    std::size_t chunkBytes = 0;
};

/**
 * One thread's working memory for codec runs: the unit's materialized
 * pages, the frame and chunk outputs, and a batch state per codec.
 * A reused batch state gives the bytes a fresh one would
 * (Codec::compress), so which thread sizes a unit never shows in its
 * size.
 */
class CodecScratch
{
  public:
    /**
     * Frame size of @p pages read from @p content and framed with
     * @p chunk_bytes chunks, timed by compressor.compress.<codec>.
     * @p content must be safe to materialize from concurrently.
     */
    std::uint32_t compress(const PageContentSource &content,
                           std::span<const PageRef> pages,
                           const Codec &codec, std::size_t chunk_bytes);

  private:
    std::vector<std::uint8_t> unit;
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> chunk;
    /** Lazily made per-codec batch states, indexed by CodecKind. */
    std::unique_ptr<Codec::BatchState> states[4];
    bool made[4] = {};
};

/**
 * Fixed-capacity flat table of exact compressed sizes. Keys are word
 * strings kept in one pool; slots (linear probing) hold a key's hash,
 * its pool offset and the size. A full table is cleared and refills,
 * so callers see a miss, never a wrong size. Nothing is allocated
 * before the first insert. One table per thread: no locking.
 */
class SizeTable
{
  public:
    /** Most entries held at once; the slot array is twice this. */
    static constexpr std::size_t capacity = std::size_t{1} << 16;
    /** find() result for an absent key. */
    static constexpr std::uint32_t notFound = UINT32_MAX;
    /** Key pool bound (8 MiB): room for capacity 6-page units. A
     * stored key takes its words plus one for its length. */
    static constexpr std::size_t maxKeyWords = capacity * 16;

    /** Hash of @p key, as find() and insert() take it. */
    static std::uint64_t hash(std::span<const std::uint64_t> key) noexcept;

    /** Size stored under @p key (whose hash is @p h), or notFound. */
    std::uint32_t find(std::span<const std::uint64_t> key,
                       std::uint64_t h) const noexcept;

    /** Store @p csize under @p key, which must be absent. A full
     * table is cleared first (clearsOnInsert). */
    void insert(std::span<const std::uint64_t> key, std::uint64_t h,
                std::uint32_t csize);

    /**
     * Whether inserting a key of @p key_words words would clear the
     * table, after @p pending_entries more inserts whose keys total
     * @p pending_words words, none of which clears it.
     */
    bool
    clearsOnInsert(std::size_t key_words,
                   std::size_t pending_entries = 0,
                   std::size_t pending_words = 0) const noexcept
    {
        return live + pending_entries == capacity ||
               keys.size() + pending_words + pending_entries + 1 +
                       key_words >
                   maxKeyWords;
    }

    /** Drop every entry and interned input. Tags handed out stay
     * unique, since freshTag() never rewinds. */
    void clear() noexcept;

    /** One tag per distinct (@p uid, @p inputs) until the next clear. */
    std::uint32_t tagFor(AppId uid, const std::vector<std::uint8_t> &inputs);

    /** A tag no other call returns. */
    std::uint32_t freshTag() noexcept { return nextTag++; }

    /** Entries currently held. */
    std::size_t entries() const noexcept { return live; }

  private:
    struct Slot
    {
        std::uint64_t hash = 0;
        std::uint32_t keyAt = empty; //!< offset of the key in keys
        std::uint32_t csize = 0;
    };

    struct Inputs
    {
        AppId uid;
        std::vector<std::uint8_t> bytes;
        std::uint32_t tag;
    };

    static constexpr std::uint32_t empty = UINT32_MAX;

    /** Index of @p key's slot, or of the empty slot ending its run. */
    std::size_t probe(std::span<const std::uint64_t> key,
                      std::uint64_t h) const noexcept;

    std::vector<Slot> slots;
    /** Each key as its length, then its words. */
    std::vector<std::uint64_t> keys;
    std::size_t live = 0;
    std::vector<Inputs> interned;
    std::uint32_t nextTag = 0;
};

/** Sizes compressed units through a SizeTable, running codecs on misses. */
class PageCompressor
{
  public:
    /**
     * @p shared outlives this compressor; nullptr makes it own one.
     * @p codecs, when given, outlives it too and runs the codec for
     * the misses of a batch; nullptr runs them on the calling thread.
     */
    explicit PageCompressor(const PageContentSource &source,
                            SizeTable *shared = nullptr,
                            CodecPool *codecs = nullptr)
        : content(source), table(shared ? *shared : ownTable),
          pool(codecs)
    {
    }

    // table may refer to ownTable, which a copy or move would not carry.
    PageCompressor(const PageCompressor &) = delete;
    PageCompressor &operator=(const PageCompressor &) = delete;

    /**
     * Compressed sizes of @p units into @p out (same length): each
     * unit's pages' contents concatenated in order and framed with its
     * chunk size. An empty unit is 0. Counts and table contents end up
     * as if the units were sized one at a time in order: a unit equal
     * to an earlier miss of the batch is a hit.
     */
    void sizeAll(std::span<const SizeRequest> units, const Codec &codec,
                 std::span<std::size_t> out);

    /** sizeAll() of the one unit @p pages. */
    std::size_t size(std::span<const PageRef> pages, const Codec &codec,
                     std::size_t chunk_bytes);

    /** Units answered from the table. */
    std::uint64_t cacheHits() const noexcept { return hits; }

    /** Units that ran a codec. */
    std::uint64_t cacheMisses() const noexcept { return misses; }

    /** Total uncompressed bytes actually run through a codec. */
    std::uint64_t
    bytesCompressed() const noexcept
    {
        return compressedVolume;
    }

  private:
    /** A unit of the current batch that runs a codec. */
    struct Miss
    {
        std::size_t unit;   //!< index into the batch
        std::uint64_t hash;
        std::size_t keyAt;  //!< offset of its key in missKeys
        std::size_t keyLen;
        std::uint32_t csize = 0;
    };

    /** Tag of @p uid's content inputs in the table. */
    std::uint32_t tagFor(AppId uid);

    /** Build the table key of @p unit into key. */
    void buildKey(const SizeRequest &unit, const Codec &codec);

    /** Run the codec for batchMisses[pendingFrom..] and store them in
     * order; afterwards none is pending. */
    void flush(std::span<const SizeRequest> units, const Codec &codec,
               std::span<std::size_t> out);

    const PageContentSource &content;
    SizeTable ownTable; //!< used only without a shared table
    SizeTable &table;
    CodecPool *pool;
    std::vector<std::pair<AppId, std::uint32_t>> tags;
    std::vector<std::uint64_t> key; //!< key of the unit being looked up
    CodecScratch scratch;           //!< codec runs on the calling thread
    std::vector<Miss> batchMisses;
    std::vector<std::uint64_t> missKeys;
    /** (unit, miss) pairs: units equal to an earlier miss. */
    std::vector<std::pair<std::size_t, std::size_t>> repeats;
    std::size_t pendingFrom = 0; //!< first miss not yet stored
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t compressedVolume = 0;
};

} // namespace ariadne

#endif // ARIADNE_SWAP_PAGE_COMPRESSOR_HH
