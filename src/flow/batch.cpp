#include "flow/batch.hpp"

#include <algorithm>
#include <thread>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace emorphic {

BatchResult run_batch(std::span<const Aig> inputs, const Pipeline& pipeline,
                      const FlowParams& params, const BatchParams& batch,
                      FlowObserver* observer) {
  Timer timer;
  BatchResult result;
  result.results.resize(inputs.size());
  if (inputs.empty()) {
    result.seconds = timer.seconds();
    return result;
  }

  // One thread-safe matcher serves every worker: the library is canonized
  // once per batch and the match cache warms across circuits. With a
  // WarmCache it is canonized once per *process* instead, and the QoR memo
  // carries over between batches too.
  std::shared_ptr<const Matcher> matcher =
      batch.warm_cache != nullptr
          ? batch.warm_cache->matcher_for(*params.library)
          : std::make_shared<const Matcher>(*params.library);

  unsigned workers = batch.num_threads;
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, inputs.size()));

  // lint:allow(thread-in-library) BatchParams::num_threads
  ThreadPool pool(workers);
  pool.parallel_for(inputs.size(), [&](std::size_t i) {
    FlowContext ctx;
    ctx.params = params;
    ctx.matcher = matcher;
    if (batch.warm_cache != nullptr) batch.warm_cache->prepare(ctx);
    ctx.input = inputs[i];
    ctx.seed = derive_seed(batch.base_seed, i);
    ctx.observer = observer;
    ctx.cancel = batch.cancel;
    ctx.batch_index = i;
    result.results[i] = pipeline.run(ctx);
  });

  result.seconds = timer.seconds();
  return result;
}

}  // namespace emorphic
