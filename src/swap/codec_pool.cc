#include "swap/codec_pool.hh"

#include <algorithm>
#include <utility>

#include "telemetry/trace_log.hh"

namespace ariadne
{

CodecPool::CodecPool(std::size_t helpers, std::string name)
    : label(std::move(name))
{
    for (std::size_t k = 0; k < helpers; ++k)
        scratches.push_back(std::make_unique<CodecScratch>());
}

CodecPool::~CodecPool()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
    }
    wake.notify_all();
    for (std::thread &t : threads)
        t.join();
}

void
CodecPool::drain(const Job &run_item, std::size_t count,
                 CodecScratch &scratch)
{
    for (;;) {
        std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count)
            return;
        run_item(i, scratch);
    }
}

void
CodecPool::run(std::size_t count, CodecScratch &caller,
               const Job &run_item)
{
    if (count < 2 || scratches.empty()) {
        for (std::size_t i = 0; i < count; ++i)
            run_item(i, caller);
        return;
    }
    if (threads.empty()) {
        threads.reserve(scratches.size());
        for (std::size_t k = 0; k < scratches.size(); ++k)
            threads.emplace_back([this, k] { helperLoop(k); });
    }
    std::size_t wanted = std::min(scratches.size(), count - 1);
    {
        std::lock_guard<std::mutex> lk(mu);
        job = &run_item;
        items = count;
        next.store(0, std::memory_order_relaxed);
        seats = wanted;
        ++batch;
    }
    for (std::size_t k = 0; k < wanted; ++k)
        wake.notify_one();
    std::exception_ptr error;
    try {
        drain(run_item, count, caller);
    } catch (...) {
        error = std::current_exception();
    }
    {
        std::unique_lock<std::mutex> lk(mu);
        // No helper may join from here on: @p run_item goes away when
        // this call returns.
        seats = 0;
        finished.wait(lk, [this] { return busy == 0; });
        job = nullptr;
        std::exception_ptr helper_error = std::exchange(failure, nullptr);
        if (!error)
            error = helper_error;
    }
    if (error)
        std::rethrow_exception(error);
}

void
CodecPool::helperLoop(std::size_t k)
{
    telemetry::TraceLog::global().nameThisThread(
        "codec helper " + label + "." + std::to_string(k));
    CodecScratch &scratch = *scratches[k];
    std::uint64_t joined = 0;
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        wake.wait(lk, [&] {
            return stopping || (batch != joined && seats > 0);
        });
        if (stopping)
            return;
        joined = batch;
        --seats;
        ++busy;
        const Job &run_item = *job;
        std::size_t count = items;
        lk.unlock();
        try {
            telemetry::TraceSpan span("codec batch", "misses", count);
            drain(run_item, count, scratch);
        } catch (...) {
            lk.lock();
            if (!failure)
                failure = std::current_exception();
            lk.unlock();
        }
        lk.lock();
        if (--busy == 0)
            finished.notify_one();
    }
}

} // namespace ariadne
