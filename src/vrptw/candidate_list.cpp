#include "vrptw/candidate_list.hpp"

#include <algorithm>

namespace tsmo {

CandidateList::CandidateList(const Instance& inst, int k)
    : k_(std::max(k, 0)) {
  const int S = inst.num_sites();
  const int N = inst.num_customers();
  offsets_.assign(static_cast<std::size_t>(S) + 1, 0);
  if (k_ == 0 || N == 0) return;

  // Earliest departure a_i + c_i of every site: the left operand of both
  // tw_reachable sums.
  const SiteSoA& soa = inst.soa();
  std::vector<double> leave(static_cast<std::size_t>(S));
  for (std::size_t i = 0; i < leave.size(); ++i) {
    leave[i] = soa.ready[i] + soa.service[i];
  }

  struct Entry {
    double distance;
    std::int32_t customer;
  };
  flat_.reserve(static_cast<std::size_t>(S) *
                static_cast<std::size_t>(std::min(k_, N)));
  std::vector<Entry> pool(static_cast<std::size_t>(N));
  for (int s = 0; s < S; ++s) {
    const auto si = static_cast<std::size_t>(s);
    // Keep the pair unless it is unreachable in *both* directions; such a
    // pair can never pass the local feasibility screen as a junction.
    // One branch-free pass over row s: the entry is always written and
    // the cursor advances by the verdict.  t(c, s) is read from row s
    // too, since T is bitwise symmetric.
    const double* row = inst.distance_row(s).data();
    const double leave_s = leave[si];
    const double due_s = soa.due[si];
    std::size_t kept = 0;
    for (int c = 1; c <= N; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      const double d = row[ci];
      const bool keep =
          (c != s) & ((leave_s + d <= soa.due[ci]) | (leave[ci] + d <= due_s));
      pool[kept] = Entry{d, static_cast<std::int32_t>(c)};
      kept += keep;
    }
    pairs_kept_ += kept;
    pairs_tw_pruned_ += static_cast<std::size_t>(N) - kept - (s > 0 ? 1 : 0);

    const auto take = std::min(static_cast<std::size_t>(k_), kept);
    std::partial_sort(pool.begin(),
                      pool.begin() + static_cast<std::ptrdiff_t>(take),
                      pool.begin() + static_cast<std::ptrdiff_t>(kept),
                      [](const Entry& a, const Entry& b) {
                        if (a.distance != b.distance) {
                          return a.distance < b.distance;
                        }
                        return a.customer < b.customer;  // deterministic
                      });
    for (std::size_t i = 0; i < take; ++i) flat_.push_back(pool[i].customer);
    offsets_[si + 1] = static_cast<std::int32_t>(flat_.size());
  }
}

std::shared_ptr<const CandidateList> make_candidate_list(const Instance& inst,
                                                         int k) {
  if (k <= 0) return nullptr;
  return std::make_shared<const CandidateList>(inst, k);
}

}  // namespace tsmo
