#include "exec/exec.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "telemetry/telemetry.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace ppacd::exec {

namespace {

/// Lane identity of the current thread: 0 = any non-pool thread, 1..N-1 = a
/// pool worker. Workers set it once at startup.
thread_local std::size_t t_lane = 0;
thread_local bool t_is_worker = false;
/// True while this thread executes a region chunk — on workers AND on the
/// caller (which drains as lane 0). Nested run_chunks calls check this, not
/// t_is_worker: a nested region issued from a chunk on the calling thread
/// must also run inline, or it would re-lock region_mutex and deadlock.
thread_local bool t_in_region = false;

// --- The claim word ----------------------------------------------------------
// One 64-bit atomic publishes a region and hands out its chunks: the high 32
// bits are the region epoch, the low 32 bits the next chunk index. Lanes claim
// with fetch_add(1); an index >= the region's chunk count means "exhausted".
// While the caller writes a new region's descriptor the word holds the new
// epoch with index kClosed, so no lane can claim against a half-written
// descriptor (see claim_descriptor()).
constexpr std::uint64_t kIndexMask = 0xFFFF'FFFFULL;
constexpr std::uint64_t kClosed = std::uint64_t{1} << 31;

constexpr std::uint64_t make_word(std::uint64_t epoch, std::uint64_t index) {
  return (epoch << 32) | index;
}
constexpr std::uint64_t epoch_of(std::uint64_t word) { return word >> 32; }
constexpr std::uint64_t index_of(std::uint64_t word) { return word & kIndexMask; }

/// Spin budget before a waiting lane parks: long enough to bridge the serial
/// gaps between back-to-back regions (a CG iteration issues several) without
/// a park and wake per gap, short enough that a lane idle through a serial
/// phase sleeps within ~0.2 ms (a pause takes ~23 ns on the 4-core Xeon the
/// benchmark ran on; 2,000 pauses parked more often and cost as much CPU).
constexpr int kSpinPauses = 8000;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

struct Pool {
  /// Joins the workers at static destruction — a destroyed joinable
  /// std::thread calls std::terminate, so a process exiting with a live
  /// multi-lane pool (e.g. flow_cli --threads N) must wind it down here.
  ~Pool();

  int lanes = 0;  ///< 0 = not yet configured
  std::vector<std::thread> workers;

  /// Serializes regions issued by different non-pool threads (the flow
  /// issues them from one thread; the lock is uncontended there).
  std::mutex region_mutex;

  alignas(64) std::atomic<std::uint64_t> word{make_word(0, kClosed)};

  // --- Current region descriptor: written by the caller between closing and
  // opening the word, read by a lane once per region it joins.
  alignas(64) std::atomic<const detail::ChunkFnRef*> fn{nullptr};
  std::atomic<std::uint64_t> chunk_count{0};
  /// Chunks not yet finished; each lane subtracts what it ran once it finds
  /// the region exhausted. Zero releases the caller.
  alignas(64) std::atomic<std::uint64_t> remaining{0};
  std::atomic<bool> failed{false};
  /// Written only by the lane that wins `failed`; read by the caller after
  /// `remaining` reaches zero (ordered by that lane's release decrement).
  std::exception_ptr error;

  // --- Parking ---------------------------------------------------------------
  std::mutex park_mutex;
  std::condition_variable work_cv;  ///< parked workers wait for a new region
  std::condition_variable done_cv;  ///< the parked caller waits for the drain
  std::atomic<int> parked_workers{0};
  std::atomic<int> parked_callers{0};
  std::atomic<bool> shutdown{false};
};

Pool& pool_state() {
  static Pool pool;
  return pool;
}

int env_thread_count() {
  if (const char* env = std::getenv("PPACD_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
    PPACD_LOG_WARN("exec") << "ignoring PPACD_THREADS=\"" << env << "\"";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// True when `word` opens a region this lane has not yet finished.
bool is_new_open(std::uint64_t word, std::uint64_t seen_epoch) {
  return epoch_of(word) != seen_epoch && index_of(word) < kClosed;
}

// --- Spin, then park ---------------------------------------------------------
// One protocol for both waits (a worker for a new region, the caller for the
// drain). The waiter announces its park in `parked` before it re-tests
// `ready`; the waker makes `ready` true before it reads `parked` (all seq_cst),
// so either the waiter sees the new state or the waker sees the waiter.

/// Spins kSpinPauses pauses on `ready`, then parks on `cv` until it holds.
/// `ready` must read its state with seq_cst loads.
template <class Ready>
void spin_then_park(Pool& pool, std::condition_variable& cv,
                    std::atomic<int>& parked, Ready ready) {
  for (int i = 0; i < kSpinPauses; ++i) {
    if (ready()) return;
    cpu_relax();
  }
  std::unique_lock<std::mutex> lock(pool.park_mutex);
  parked.fetch_add(1, std::memory_order_seq_cst);
  cv.wait(lock, ready);
  parked.fetch_sub(1, std::memory_order_relaxed);
}

/// Wakes the waiters parked on `cv`, if any; call after making their
/// `ready` true. Taking park_mutex orders the notify after a waiter that
/// announced itself has entered its wait.
void wake_parked(Pool& pool, std::condition_variable& cv,
                 const std::atomic<int>& parked) {
  if (parked.load(std::memory_order_seq_cst) == 0) return;
  { std::lock_guard<std::mutex> lock(pool.park_mutex); }
  cv.notify_all();
}

/// Waits until a region newer than `seen_epoch` opens or the pool shuts
/// down. Returns false on shutdown.
bool await_region(Pool& pool, std::uint64_t seen_epoch) {
  spin_then_park(pool, pool.work_cv, pool.parked_workers, [&pool, seen_epoch] {
    return pool.shutdown.load(std::memory_order_seq_cst) ||
           is_new_open(pool.word.load(std::memory_order_seq_cst), seen_epoch);
  });
  return !pool.shutdown.load(std::memory_order_acquire);
}

/// What a lane knows of the region it is draining.
struct Claimed {
  std::uint64_t epoch = ~std::uint64_t{0};
  std::uint64_t chunk_count = 0;
  const detail::ChunkFnRef* fn = nullptr;
};

/// Reads the descriptor of region `epoch` after a claim returned that epoch
/// open. Returns false when the word has since moved to a later epoch: then
/// the region finished without this lane (its claim lay past the end — a
/// claim below the count would have kept the region from finishing), and the
/// descriptor may already belong to the next region. The acquire loads order
/// the re-check: reading a value the caller wrote after closing the word
/// makes the close visible to the re-check.
bool claim_descriptor(Pool& pool, std::uint64_t epoch, Claimed* region) {
  const detail::ChunkFnRef* fn = pool.fn.load(std::memory_order_acquire);
  const std::uint64_t count = pool.chunk_count.load(std::memory_order_acquire);
  if (epoch_of(pool.word.load(std::memory_order_acquire)) != epoch) return false;
  region->epoch = epoch;
  region->chunk_count = count;
  region->fn = fn;
  return true;
}

/// Runs one claimed chunk; the first exception of the region is kept for the
/// caller and later chunks are skipped (claimed, not run) so it drains fast.
void run_chunk(Pool& pool, const detail::ChunkFnRef& fn, std::size_t chunk) {
  if (pool.failed.load(std::memory_order_acquire)) return;
  t_in_region = true;
  try {
    fn(chunk);
  } catch (...) {
    bool expected = false;
    if (pool.failed.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
      pool.error = std::current_exception();
    }
  }
  t_in_region = false;
}

/// Hands this lane's finished chunks back to the region; the lane that
/// finishes the last one wakes the caller if it parked.
void retire_chunks(Pool& pool, std::uint64_t executed) {
  if (pool.remaining.fetch_sub(executed, std::memory_order_seq_cst) == executed) {
    wake_parked(pool, pool.done_cv, pool.parked_callers);
  }
}

/// Claims and runs chunks until a claim comes back exhausted or closed.
/// Returns the epoch this lane is done with — unchanged `seen_epoch` when
/// the claim found the next region still closed, so the lane waits for it
/// to open instead of skipping it.
std::uint64_t drain_region(Pool& pool, std::size_t lane,
                           std::uint64_t seen_epoch) {
  Claimed region;
  std::uint64_t executed = 0;
  while (true) {
    const std::uint64_t word =
        pool.word.fetch_add(1, std::memory_order_acq_rel);
    const std::uint64_t epoch = epoch_of(word);
    const std::uint64_t index = index_of(word);
    if (index >= kClosed) {
      // Claims past the end of a region this lane joined can reach kClosed
      // when its chunk count lies near it: that region is exhausted, and the
      // chunks run here must still be retired. (While this lane holds
      // unretired chunks the caller cannot close the word for a new epoch.)
      if (epoch == region.epoch) break;
      return seen_epoch;
    }
    if (epoch != region.epoch && !claim_descriptor(pool, epoch, &region)) {
      return epoch;
    }
    if (index >= region.chunk_count) break;
    run_chunk(pool, *region.fn, static_cast<std::size_t>(index));
    ++executed;
  }
  if (executed > 0) {
    PPACD_COUNT("exec.tasks.executed", executed);
    if (lane != 0) PPACD_COUNT("exec.steal.count", executed);
    retire_chunks(pool, executed);
  }
  return region.epoch;
}

void worker_main(std::size_t lane, std::uint64_t seen_epoch) {
  t_lane = lane;
  t_is_worker = true;
  Pool& pool = pool_state();
  while (await_region(pool, seen_epoch)) {
    seen_epoch = drain_region(pool, lane, seen_epoch);
  }
}

/// Joins the current workers (if any).
void stop_workers(Pool& pool) {
  pool.shutdown.store(true, std::memory_order_seq_cst);
  wake_parked(pool, pool.work_cv, pool.parked_workers);
  for (std::thread& worker : pool.workers) worker.join();
  pool.workers.clear();
  pool.shutdown.store(false, std::memory_order_relaxed);
}

Pool::~Pool() { stop_workers(*this); }

/// Spawns workers for `lanes` total lanes.
void configure(Pool& pool, int lanes) {
  PPACD_CHECK(!t_is_worker && !t_in_region,
              "pool reconfigured from inside a parallel region");
  if (!pool.workers.empty()) stop_workers(pool);
  pool.lanes = lanes < 1 ? 1 : lanes;
  // New workers start out done with the current epoch, read here rather
  // than on the worker, which may start after the next region opened.
  const std::uint64_t epoch =
      epoch_of(pool.word.load(std::memory_order_relaxed));
  pool.workers.reserve(static_cast<std::size_t>(pool.lanes) - 1);
  for (int lane = 1; lane < pool.lanes; ++lane) {
    pool.workers.emplace_back(worker_main, static_cast<std::size_t>(lane),
                              epoch);
  }
  PPACD_GAUGE_SET("exec.pool.size", pool.lanes);
  PPACD_LOG_DEBUG("exec") << "pool configured with " << pool.lanes << " lanes";
}

Pool& pool() {
  Pool& pool = pool_state();
  // Lazy first-use sizing; set_thread_count() reconfigures explicitly.
  if (pool.lanes == 0) {
    static std::once_flag once;
    std::call_once(once, [&pool] { configure(pool, env_thread_count()); });
  }
  return pool;
}

/// Waits until every claimed chunk of the region finished.
void await_drain(Pool& pool) {
  spin_then_park(pool, pool.done_cv, pool.parked_callers, [&pool] {
    return pool.remaining.load(std::memory_order_seq_cst) == 0;
  });
}

}  // namespace

int thread_count() { return pool().lanes; }

void set_thread_count(int count) {
  Pool& state = pool_state();
  if (state.lanes == count && count >= 1) return;
  configure(state, count);
}

std::size_t worker_slots() { return static_cast<std::size_t>(pool().lanes); }

std::size_t this_worker_slot() { return t_lane; }

bool inside_parallel_region() { return t_in_region; }

namespace detail {

void run_chunks(std::size_t chunk_count, const ChunkFnRef& chunk_fn) {
  if (chunk_count == 0) return;
  Pool& state = pool();
  // Nested region (issued from inside a chunk, on a worker or on the caller
  // draining as lane 0) or serial pool: run inline, in chunk order — the
  // chunk structure is identical, so results are too.
  if (t_in_region || state.lanes <= 1) {
    PPACD_COUNT("exec.tasks.executed", chunk_count);
    for (std::size_t c = 0; c < chunk_count; ++c) chunk_fn(c);
    return;
  }
  PPACD_CHECK(chunk_count < kClosed, "region of " << chunk_count << " chunks");

  std::lock_guard<std::mutex> region_lock(state.region_mutex);
  // Close the word under the next epoch, write the descriptor, then open.
  const std::uint64_t epoch =
      (epoch_of(state.word.load(std::memory_order_relaxed)) + 1) & kIndexMask;
  state.word.store(make_word(epoch, kClosed), std::memory_order_seq_cst);
  state.fn.store(&chunk_fn, std::memory_order_release);
  state.chunk_count.store(chunk_count, std::memory_order_release);
  state.remaining.store(chunk_count, std::memory_order_relaxed);
  state.failed.store(false, std::memory_order_relaxed);
  state.error = nullptr;
  state.word.store(make_word(epoch, 0), std::memory_order_seq_cst);
  wake_parked(state, state.work_cv, state.parked_workers);

  drain_region(state, /*lane=*/0, epoch - 1);  // the caller is lane 0
  await_drain(state);
  std::exception_ptr error = std::move(state.error);
  state.error = nullptr;
  if (error) std::rethrow_exception(error);
}

}  // namespace detail

}  // namespace ppacd::exec
