/**
 * @file
 * The compressed-size oracle.
 *
 * Every compression in the simulator runs a real codec over real
 * synthesized bytes. PageCompressor::size() is the one way to size a
 * compressed unit of 1..N pages: the pages' contents, concatenated in
 * order and framed with the unit's chunk size.
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

/** Reference to one page's content. */
struct PageRef
{
    PageKey key;
    std::uint32_t version = 0;
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

    /** Hash of @p key, as find() and insert() take it. */
    static std::uint64_t hash(std::span<const std::uint64_t> key) noexcept;

    /** Size stored under @p key (whose hash is @p h), or notFound. */
    std::uint32_t find(std::span<const std::uint64_t> key,
                       std::uint64_t h) const noexcept;

    /** Store @p csize under @p key, which must be absent. */
    void insert(std::span<const std::uint64_t> key, std::uint64_t h,
                std::uint32_t csize);

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
    /** Key pool bound (8 MiB): room for capacity 6-page units. */
    static constexpr std::size_t maxKeyWords = capacity * 16;

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
    /** @p shared outlives this compressor; nullptr makes it own one. */
    explicit PageCompressor(const PageContentSource &source,
                            SizeTable *shared = nullptr)
        : content(source), table(shared ? *shared : ownTable)
    {
    }

    // table may refer to ownTable, which a copy or move would not carry.
    PageCompressor(const PageCompressor &) = delete;
    PageCompressor &operator=(const PageCompressor &) = delete;

    /**
     * Compressed size of the unit @p pages: their contents
     * concatenated in order and framed with @p chunk_bytes chunks.
     * An empty unit is 0.
     */
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
    /** Tag of @p uid's content inputs in the table. */
    std::uint32_t tagFor(AppId uid);

    /** Cached batch state for @p codec (created on first use). */
    Codec::BatchState *batchStateFor(const Codec &codec);

    /** Lazily created per-codec batch state, indexed by CodecKind. */
    struct BatchSlot
    {
        std::unique_ptr<Codec::BatchState> state;
        bool made = false;
    };

    const PageContentSource &content;
    SizeTable ownTable; //!< used only without a shared table
    SizeTable &table;
    std::vector<std::pair<AppId, std::uint32_t>> tags;
    std::vector<std::uint64_t> key;         //!< key of the unit sized
    std::vector<std::uint8_t> unitScratch;  //!< the unit's pages
    std::vector<std::uint8_t> frameScratch; //!< reused frame output
    std::vector<std::uint8_t> chunkScratch; //!< reused codec dst
    BatchSlot batchStates[4];
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t compressedVolume = 0;
};

} // namespace ariadne

#endif // ARIADNE_SWAP_PAGE_COMPRESSOR_HH
