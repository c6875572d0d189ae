/**
 * @file
 * CodecPool — a fleet worker's helper threads for the codec runs of a
 * size batch (PageCompressor::sizeAll).
 *
 * One reclaim pass sizes hundreds of units, and the size of each is a
 * pure function of its key, so the misses of a batch can run in any
 * order on any thread. A pool runs them on the calling thread plus up
 * to `misses - 1` of its helpers, each with its own CodecScratch, and
 * returns when all are done; the caller then stores them in order.
 *
 * A pool belongs to one fleet worker and is used by one thread at a
 * time: workers never share helpers, so two workers submitting at once
 * cannot wait on each other. Helpers start on the first batch that has
 * work for them and are joined when the pool is destroyed.
 */

#ifndef ARIADNE_SWAP_CODEC_POOL_HH
#define ARIADNE_SWAP_CODEC_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "swap/page_compressor.hh"

namespace ariadne
{

/** Helper threads that run the codec misses of one worker's batches. */
class CodecPool
{
  public:
    /** Runs item @p i of a batch with the running thread's scratch. */
    using Job = std::function<void(std::size_t i, CodecScratch &)>;

    /**
     * A pool of @p helpers threads, none started yet. @p name names
     * them `codec helper NAME.K` in the trace-event timeline.
     */
    CodecPool(std::size_t helpers, std::string name);

    /** Joins the helpers. */
    ~CodecPool();

    // Helpers hold this pool's address.
    CodecPool(const CodecPool &) = delete;
    CodecPool &operator=(const CodecPool &) = delete;

    /** Helper threads this pool may run (started or not). */
    std::size_t helpers() const noexcept { return scratches.size(); }

    /**
     * Run @p job for every item in [0, @p items): on the calling
     * thread with @p caller, and on at most items - 1 helpers. Returns
     * when every item has run; an exception a helper's item threw is
     * rethrown here. With fewer than 2 items or no helpers, runs
     * inline.
     */
    void run(std::size_t items, CodecScratch &caller, const Job &job);

  private:
    /** Body of helper @p k. */
    void helperLoop(std::size_t k);

    /** Claim and run items of the current batch until none is left. */
    void drain(const Job &job, std::size_t items, CodecScratch &scratch);

    const std::string label;
    /** One per helper; helper k uses scratches[k]. */
    std::vector<std::unique_ptr<CodecScratch>> scratches;

    std::mutex mu;
    /** Helpers wait here for a batch with a free seat. */
    std::condition_variable wake;
    /** The caller waits here for its helpers to finish. */
    std::condition_variable finished;
    // The current batch and its bookkeeping, guarded by mu.
    std::uint64_t batch = 0;
    const Job *job = nullptr;
    std::size_t items = 0;
    std::size_t seats = 0; //!< helpers that may still join
    std::size_t busy = 0;  //!< helpers running the batch
    bool stopping = false;
    std::exception_ptr failure;
    /** Next unclaimed item; reset under mu before a batch is posted. */
    std::atomic<std::size_t> next{0};

    /** Started on the first batch with work for a helper; last, so
     * the members they use outlive them. */
    std::vector<std::thread> threads;
};

} // namespace ariadne

#endif // ARIADNE_SWAP_CODEC_POOL_HH
