#include "analysis/markov.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

#include "util/check.h"

namespace emsim::analysis {

namespace {

using State = std::vector<int>;  // Per-run cached counts, kept sorted ascending.

State Sorted(State s) {
  std::sort(s.begin(), s.end());
  return s;
}

int Sum(const State& s) {
  int total = 0;
  for (int v : s) {
    total += v;
  }
  return total;
}

/// Enumerates all index subsets of size `want` from `candidates`, invoking
/// `fn(subset)` for each; used for the greedy policy's uniform choice of
/// prefetch targets.
void ForEachSubset(const std::vector<int>& candidates, int want,
                   std::vector<int>& scratch,
                   const std::function<void(const std::vector<int>&)>& fn,
                   size_t start = 0) {
  if (static_cast<int>(scratch.size()) == want) {
    fn(scratch);
    return;
  }
  for (size_t i = start; i < candidates.size(); ++i) {
    if (candidates.size() - i < static_cast<size_t>(want) - scratch.size()) {
      break;
    }
    scratch.push_back(candidates[i]);
    ForEachSubset(candidates, want, scratch, fn, i + 1);
    scratch.pop_back();
  }
}

double Binomial(int n, int k) {
  double result = 1;
  for (int i = 0; i < k; ++i) {
    result = result * (n - i) / (i + 1);
  }
  return result;
}

}  // namespace

MarkovPrefetchModel::MarkovPrefetchModel(int num_disks, int cache_blocks)
    : d_(num_disks), c_(cache_blocks) {
  EMSIM_CHECK(num_disks >= 1);
  EMSIM_CHECK(cache_blocks >= num_disks && "the cache must hold one block per run");
  EMSIM_CHECK(num_disks <= 8 && cache_blocks <= 64 && "state space too large");
}

MarkovPrefetchModel::Solution MarkovPrefetchModel::Solve(Policy policy) const {
  // Invariant: before every depletion step each run holds >= 1 cached block
  // (a run that empties is refilled synchronously within the same step), so
  // states have all entries >= 1 and sum <= C. They are enumerated once, in
  // lexicographic order, and every sum below runs over them in that order.
  // States the chain never reaches keep probability 0 and add only zeros.
  std::vector<State> states;
  State prefix(static_cast<size_t>(d_));
  std::function<void(size_t, int, int)> enumerate = [&](size_t pos, int low, int left) {
    if (pos == prefix.size()) {
      states.push_back(prefix);
      return;
    }
    for (int v = low; v * static_cast<int>(prefix.size() - pos) <= left; ++v) {
      prefix[pos] = v;
      enumerate(pos + 1, v, left - v);
    }
  };
  enumerate(0, 1, c_);
  auto index_of = [&states](const State& s) {
    auto it = std::lower_bound(states.begin(), states.end(), s);
    EMSIM_DCHECK(it != states.end() && *it == s);
    return static_cast<size_t>(it - states.begin());
  };

  // The transitions, built once, in the order every sum below takes them.
  // A branch depletes one run (equal counts grouped) with probability
  // multiplicity / D and splits evenly over its `divisor` targets, one move
  // each; when the run empties it is an I/O, whose parallelism its first
  // move carries.
  struct Move {
    size_t from = 0;
    size_t to = 0;
    int multiplicity = 0;
    int parallelism = 0;  // 0 when no I/O happens, and on later targets.
    double divisor = 1.0;
  };
  std::vector<Move> moves;
  for (size_t k = 0; k < states.size(); ++k) {
    const State& state = states[k];
    for (size_t i = 0; i < state.size(); ++i) {
      if (i > 0 && state[i] == state[i - 1]) {
        continue;  // Same multiset transition as the previous index.
      }
      Move move;
      move.from = k;
      for (int v : state) {
        move.multiplicity += v == state[i];
      }
      auto add = [&](const State& target) {
        move.to = index_of(Sorted(target));
        moves.push_back(move);
        move.parallelism = 0;
      };
      State s = state;
      s[i] -= 1;
      if (s[i] > 0) {
        add(s);
        continue;
      }
      // I/O operation: run i is empty.
      int free = c_ - Sum(s);
      EMSIM_DCHECK(free >= 1);
      if (policy == Policy::kConservative) {
        if (free >= d_) {
          for (auto& v : s) {
            v += 1;
          }
          move.parallelism = d_;
        } else {
          s[i] += 1;
          move.parallelism = 1;
        }
        add(s);
        continue;
      }
      int m = std::min(d_, free);
      s[i] += 1;
      move.parallelism = m;
      if (m == 1) {
        add(s);
        continue;
      }
      // Choose m-1 of the other d-1 runs uniformly.
      std::vector<int> others;
      for (size_t j = 0; j < s.size(); ++j) {
        if (j != i) {
          others.push_back(static_cast<int>(j));
        }
      }
      move.divisor = Binomial(d_ - 1, m - 1);
      std::vector<int> scratch;
      ForEachSubset(others, m - 1, scratch, [&](const std::vector<int>& subset) {
        State next = s;
        for (int j : subset) {
          next[static_cast<size_t>(j)] += 1;
        }
        add(next);
      });
    }
  }

  // One power-iteration step from `from` into `to`; also accumulates I/O
  // metrics under `from`.
  auto step = [&](const std::vector<double>& from, std::vector<double>& to,
                  Solution* metrics, double* io_weight) {
    std::fill(to.begin(), to.end(), 0.0);
    for (const Move& move : moves) {
      double branch = from[move.from] * move.multiplicity / d_;
      if (metrics != nullptr && move.parallelism > 0) {
        metrics->parallelism += branch * move.parallelism;
        metrics->success += branch * (move.parallelism == d_ ? 1.0 : 0.0);
        *io_weight += branch;
      }
      to[move.to] += branch / move.divisor;
    }
  };

  std::vector<double> pi(states.size(), 0.0);
  std::vector<double> next(states.size());
  pi[index_of(State(static_cast<size_t>(d_), 1))] = 1.0;
  // Power iteration with 1/2 damping to kill periodicity.
  for (int iter = 0; iter < 2000; ++iter) {
    step(pi, next, nullptr, nullptr);
    double delta = 0;
    for (size_t k = 0; k < states.size(); ++k) {
      double mixed = pi[k] / 2 + next[k] / 2;
      delta += std::fabs(mixed - pi[k]);
      pi[k] = mixed;
    }
    if (delta < 1e-13) {
      break;
    }
  }

  Solution metrics;
  double io_weight = 0;
  step(pi, next, &metrics, &io_weight);
  EMSIM_CHECK(io_weight > 0);
  metrics.parallelism /= io_weight;
  metrics.success /= io_weight;
  for (size_t k = 0; k < states.size(); ++k) {
    metrics.occupancy += pi[k] * Sum(states[k]);
  }
  return metrics;
}

const MarkovPrefetchModel::Solution& MarkovPrefetchModel::Solved(Policy policy) const {
  auto it = cache_.find(static_cast<int>(policy));
  if (it == cache_.end()) {
    it = cache_.emplace(static_cast<int>(policy), Solve(policy)).first;
  }
  return it->second;
}

double MarkovPrefetchModel::AverageParallelism(Policy policy) const {
  return Solved(policy).parallelism;
}

double MarkovPrefetchModel::SuccessRatio(Policy policy) const { return Solved(policy).success; }

double MarkovPrefetchModel::MeanOccupancy(Policy policy) const {
  return Solved(policy).occupancy;
}

}  // namespace emsim::analysis
