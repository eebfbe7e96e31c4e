#include "pvfs/store_async.hpp"

#include <chrono>

namespace pvfs {

// ---- CompletionQueue -------------------------------------------------------

void AsyncStore::CompletionQueue::Push(Completion done) {
  // Notify while holding the lock: the moment a waiter consumes the final
  // completion the caller may destroy this queue (the lifetime contract),
  // so the condition variable must not be touched after mu_ is released.
  std::lock_guard<std::mutex> lock(mu_);
  done_.push_back(std::move(done));
  cv_.notify_all();
}

AsyncStore::Completion AsyncStore::CompletionQueue::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !done_.empty(); });
  Completion done = std::move(done_.front());
  done_.pop_front();
  --outstanding_;
  return done;
}

std::optional<AsyncStore::Completion> AsyncStore::CompletionQueue::Poll() {
  std::lock_guard<std::mutex> lock(mu_);
  if (done_.empty()) return std::nullopt;
  Completion done = std::move(done_.front());
  done_.pop_front();
  --outstanding_;
  return done;
}

std::size_t AsyncStore::CompletionQueue::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outstanding_;
}

// ---- AsyncStore ------------------------------------------------------------

AsyncStore::AsyncStore(LocalStore& store, Options options)
    : store_(store), options_(options) {
  workers_.reserve(options_.workers);
  for (std::uint32_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AsyncStore::~AsyncStore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  submit_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void AsyncStore::SubmitRead(CompletionQueue& cq, Token token,
                            FileHandle handle, FileOffset offset,
                            std::span<std::byte> out) {
  Submit({&cq, token, /*is_apply=*/false, handle, offset, out, 0, 0});
}

void AsyncStore::SubmitApply(CompletionQueue& cq, Token token,
                             LocalStore::IntentId intent, ByteCount begin,
                             ByteCount length) {
  Submit({&cq, token, /*is_apply=*/true, 0, begin, {}, intent, length});
}

void AsyncStore::Submit(Op op) {
  {
    std::lock_guard<std::mutex> cq_lock(op.cq->mu_);
    ++op.cq->outstanding_;
  }
  if (workers_.empty()) {
    Execute(op);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(op);
  }
  submit_cv_.notify_one();
}

void AsyncStore::Execute(const Op& op) {
  Completion done;
  done.token = op.token;
  done.bytes = op.is_apply ? op.length : op.out.size();
  // Device interval first (outside the store mutex, so intervals on
  // different workers overlap), then the store access.
  const std::uint64_t us =
      options_.seek_us + options_.us_per_mib * done.bytes / kMiB;
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  if (op.is_apply) {
    store_.Apply(op.intent, op.offset, op.length);
  } else {
    done.status = store_.Read(op.handle, op.offset, op.out);
  }
  op.cq->Push(std::move(done));
}

void AsyncStore::WorkerLoop() {
  for (;;) {
    Op op;
    {
      std::unique_lock<std::mutex> lock(mu_);
      submit_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      op = queue_.front();
      queue_.pop_front();
    }
    Execute(op);
  }
}

}  // namespace pvfs
