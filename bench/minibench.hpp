#pragma once
// Zero-dependency timer harness for the micro benches (bench/micro_*.cpp),
// shaped like the small subset of the google-benchmark API they use, so
// they build on every machine.
//
// Supported surface: benchmark::State (range-for iteration, range(),
// SetItemsProcessed, iterations),
// benchmark::DoNotOptimize, the BENCHMARK(fn)->Arg(n) registration macro,
// and Initialize/RunSpecifiedBenchmarks. Each benchmark is auto-calibrated
// to run for at least ~50 ms and reported as ns/op.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace minibench {

class State {
 public:
  State(std::int64_t arg, std::size_t iters) : arg_(arg), iters_(iters) {}

  /// The n-th benchmark argument; this shim supports a single argument.
  std::int64_t range(std::size_t /*index*/ = 0) const { return arg_; }

  std::size_t iterations() const { return iters_; }

  void SetItemsProcessed(std::int64_t items) { items_ = items; }
  std::int64_t items_processed() const { return items_; }

  /// Seconds of measured loop time.
  double seconds() const { return elapsed_; }

  struct iterator {
    State* state;
    std::size_t remaining;
    bool operator!=(const iterator& other) const {
      return remaining != other.remaining;
    }
    void operator++() {
      if (--remaining == 0) state->accumulate();
    }
    int operator*() const { return 0; }
  };

  iterator begin() {
    elapsed_ = 0.0;
    start_ = Clock::now();
    return {this, iters_};
  }
  iterator end() { return {this, 0}; }

 private:
  using Clock = std::chrono::steady_clock;

  void accumulate() {
    elapsed_ += std::chrono::duration<double>(Clock::now() - start_).count();
  }

  std::int64_t arg_ = 0;
  std::size_t iters_ = 1;
  std::int64_t items_ = 0;
  double elapsed_ = 0.0;
  Clock::time_point start_;
};

template <typename T>
inline void DoNotOptimize(const T& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r,m"(value) : "memory");
#else
  volatile const T* sink = &value;
  (void)sink;
#endif
}

struct Benchmark {
  std::string name;
  std::function<void(State&)> fn;
  std::vector<std::int64_t> args;  // empty = one run without an argument
};

inline std::vector<Benchmark>& registry() {
  static std::vector<Benchmark> benchmarks;
  return benchmarks;
}

/// Returned (as a pointer) by the BENCHMARK macro so ->Arg(n) chains work
/// as in google-benchmark.
class Registrar {
 public:
  explicit Registrar(std::size_t index) : index_(index) {}
  Registrar* Arg(std::int64_t value) {
    registry()[index_].args.push_back(value);
    return this;
  }

 private:
  std::size_t index_;
};

inline Registrar* make_registrar(const char* name,
                                 std::function<void(State&)> fn) {
  registry().push_back({name, std::move(fn), {}});
  return new Registrar(registry().size() - 1);  // lives for the whole run
}

inline void Initialize(int* /*argc*/, char** /*argv*/) {}

/// Run one benchmark/argument pair, auto-scaling the iteration count until
/// the measured loop time passes ~50 ms.
inline void run_one(const Benchmark& bench, std::int64_t arg, bool has_arg) {
  constexpr double kMinSeconds = 0.05;
  std::size_t iters = 1;
  double seconds = 0.0;
  std::int64_t items = 0;
  for (;;) {
    State state(arg, iters);
    bench.fn(state);
    seconds = state.seconds();
    items = state.items_processed();
    if (seconds >= kMinSeconds || iters >= (std::size_t{1} << 30)) break;
    double scale = seconds > 1e-9 ? (kMinSeconds * 1.4) / seconds : 1000.0;
    std::size_t next = static_cast<std::size_t>(iters * scale) + 1;
    iters = next > iters ? next : iters * 2;
  }
  std::string label = bench.name;
  if (has_arg) label += "/" + std::to_string(arg);
  double ns_per_op = seconds * 1e9 / static_cast<double>(iters);
  if (items > 0) {
    double rate = static_cast<double>(items) / seconds;
    std::printf("%-32s %12.1f ns/op %12zu iters %12.2fM items/s\n",
                label.c_str(), ns_per_op, iters, rate / 1e6);
  } else {
    std::printf("%-32s %12.1f ns/op %12zu iters\n", label.c_str(), ns_per_op,
                iters);
  }
}

inline int RunSpecifiedBenchmarks() {
  std::printf("%-32s %15s %18s\n", "benchmark (minibench)", "time",
              "iterations");
  for (const Benchmark& bench : registry()) {
    if (bench.args.empty()) {
      run_one(bench, 0, /*has_arg=*/false);
    } else {
      for (std::int64_t arg : bench.args) run_one(bench, arg, /*has_arg=*/true);
    }
  }
  return static_cast<int>(registry().size());
}

}  // namespace minibench

#define MINIBENCH_CONCAT2(a, b) a##b
#define MINIBENCH_CONCAT(a, b) MINIBENCH_CONCAT2(a, b)
#define BENCHMARK(fn)                                                     \
  static ::minibench::Registrar* MINIBENCH_CONCAT(minibench_registrar_,   \
                                                  __LINE__) =             \
      ::minibench::make_registrar(#fn, fn)
