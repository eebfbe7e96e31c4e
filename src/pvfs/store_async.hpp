// AsyncStore: a nonblocking submission/completion interface over a
// LocalStore, modeled on the aio-method bstream of OrangeFS trove-dbpf
// (dbpf-bstream-aio.c): callers enqueue reads and parts of staged write
// intents tagged with a token, a small pool of store-worker threads
// executes them against the (thread-safe) LocalStore, and finished
// operations surface on the caller's CompletionQueue, drained with
// Wait()/Poll(). Writes are staged, applied and committed through the
// LocalStore's one journaled write path — this layer adds only
// scheduling, never a second data path.
//
// With zero workers there is no pool: every submission executes inline on
// the submitting thread and its completion is ready before Submit*
// returns. That is the window-1 flow an iod runs by default — no thread,
// no handoff, the same code.
//
// Completions route to the CompletionQueue named at submission, so any
// number of independent pipelines (one flow per in-flight request; see
// src/pvfs/flow) can share one daemon's store-worker pool without seeing
// each other's completions.
//
// Modeled device time: real iods paid a seek plus a transfer time per
// contiguous disk access; our in-memory store pays neither. The optional
// `seek_us`/`us_per_mib` knobs restore that cost, charged once per
// operation (one flow segment) and slept outside the store mutex, so with
// N workers N device intervals proceed concurrently — the flow pipeline's
// win — while inline execution pays one request's intervals strictly in
// series (concurrent requests, each inline on its own serving thread,
// still overlap).
//
// Lifetime contract: the buffers behind a submitted operation (the read
// target span) and its CompletionQueue must stay alive until that
// operation's completion has been returned by Wait()/Poll(). The
// destructor executes every pending operation before returning, so
// completions are never lost.
//
// Thread safety: fully thread-safe; any number of threads may submit and
// (separately or together) drain their own queues.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "pvfs/store.hpp"

namespace pvfs {

class AsyncStore {
 public:
  struct Options {
    /// Store-worker threads draining the submission queue. More workers =
    /// more device intervals in flight at once (an NCQ depth, loosely).
    /// 0 = no pool: submissions execute inline on the submitting thread.
    std::uint32_t workers = 2;
    /// Modeled per-operation positioning latency, microseconds.
    std::uint64_t seek_us = 0;
    /// Modeled transfer time, microseconds per MiB moved.
    std::uint64_t us_per_mib = 0;
  };

  /// Caller-chosen operation tag, returned with the completion.
  using Token = std::uint64_t;

  struct Completion {
    Token token = 0;
    Status status = Status::Ok();
    ByteCount bytes = 0;  // bytes moved by the operation
  };

  /// One caller's completion mailbox. Submissions name the queue their
  /// completion lands on; pipelines sharing an AsyncStore each bring
  /// their own.
  class CompletionQueue {
   public:
    /// Block until a completion is available and return it.
    Completion Wait();
    /// Return a completion if one is ready, without blocking.
    std::optional<Completion> Poll();
    /// Operations submitted against this queue whose completions have not
    /// been consumed yet.
    std::size_t outstanding() const;

   private:
    friend class AsyncStore;
    void Push(Completion done);

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Completion> done_;
    std::size_t outstanding_ = 0;
  };

  AsyncStore(LocalStore& store, Options options);
  /// Drains: blocks until every submitted operation has executed.
  ~AsyncStore();

  AsyncStore(const AsyncStore&) = delete;
  AsyncStore& operator=(const AsyncStore&) = delete;

  /// Enqueue a read of `out.size()` bytes at `offset` into `out`.
  void SubmitRead(CompletionQueue& cq, Token token, FileHandle handle,
                  FileOffset offset, std::span<std::byte> out);

  /// Enqueue landing bytes [begin, begin + length) of a staged intent
  /// (LocalStore::Apply). The intent's owner commits it once every part's
  /// completion is in.
  void SubmitApply(CompletionQueue& cq, Token token,
                   LocalStore::IntentId intent, ByteCount begin,
                   ByteCount length);

 private:
  struct Op {
    CompletionQueue* cq = nullptr;
    Token token = 0;
    bool is_apply = false;
    FileHandle handle = 0;             // reads
    FileOffset offset = 0;             // reads: store offset; applies: begin
    std::span<std::byte> out;          // reads
    LocalStore::IntentId intent = 0;   // applies
    ByteCount length = 0;              // applies
  };

  /// Count the op against its queue, then run it inline (no pool) or
  /// hand it to the workers.
  void Submit(Op op);
  /// Charge the modeled device interval, move the bytes, post completion.
  void Execute(const Op& op);
  void WorkerLoop();

  LocalStore& store_;
  Options options_;

  mutable std::mutex mu_;
  std::condition_variable submit_cv_;  // workers wait for work / stop
  std::deque<Op> queue_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace pvfs
