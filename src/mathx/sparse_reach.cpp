// SparseLu's public entry points (the constructors and refactor_from()),
// which choose between the scan loop of sparse.cpp and the reach, and the
// analyze mode for large sparse systems (generated arrays): the left-looking
// loop of sparse.cpp, with every column taking the Gilbert–Peierls reach
// instead of scanning all earlier steps, in the numeric pass and in the
// structural closure. Every replay runs sparse.cpp's factorize().
//
// A second copy of the analyze loop, in a file of its own, on purpose: the
// reach folded into sparse.cpp's loop, whether as a branch or as a second
// template instantiation there, slowed the small and block-dense systems
// that loop serves (n = 18 mixer refactor 10-30%, n = 234 complex refactor
// about 2x) through GCC's inlining and code-layout decisions. Both loops
// produce byte-identical factors and symbolics (tests/mathx/
// test_lu_refactor.cpp, SparseLuReachTest).
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mathx/lu.hpp"
#include "mathx/sparse.hpp"

namespace rfmix::mathx {
namespace {

constexpr std::size_t kNoStep = static_cast<std::size_t>(-1);

// Gilbert–Peierls reach: the elimination steps k < j whose pivot row is
// reachable from the rows [first, last) of column j through the L columns
// (col_ptr, row_idx) built so far, in ascending order. Row r is the pivot
// row of step perm_inv[r] when that step is below j; L(:,k) holds only rows
// not pivoted at step k, so every edge leads to a later step. `mark` holds
// the column that last reached each step and must not hold j on entry.
void reach_ascending(std::size_t j, const std::size_t* first, const std::size_t* last,
                     const std::vector<std::size_t>& col_ptr,
                     const std::vector<std::size_t>& row_idx,
                     const std::vector<std::size_t>& perm_inv, std::vector<std::size_t>& mark,
                     std::vector<std::size_t>& reach) {
  reach.clear();
  auto visit = [&](std::size_t row) {
    const std::size_t k = perm_inv[row];
    if (k < j && mark[k] != j) {
      mark[k] = j;
      reach.push_back(k);
    }
  };
  for (; first != last; ++first) visit(*first);
  for (std::size_t i = 0; i < reach.size(); ++i) {
    const std::size_t k = reach[i];
    for (std::size_t p = col_ptr[k]; p < col_ptr[k + 1]; ++p) visit(row_idx[p]);
  }
  std::sort(reach.begin(), reach.end());
}

}  // namespace

template <typename T>
bool SparseLu<T>::takes_reach(const CscMatrix<T>& a) {
  const std::size_t n = a.cols();
  return n > 0 && 8 * (a.nnz() / n + 8) < n;
}

template <typename T>
SparseLu<T>::SparseLu(const CscMatrix<T>& a, double pivot_tol) {
  if (takes_reach(a))
    analyze_reach(a, pivot_tol, nullptr);
  else
    *this = SparseLu(ScanTag{}, a, pivot_tol);
}

template <typename T>
SparseLu<T>::SparseLu(const CscMatrix<T>& a, SparseLuSymbolic<T>& sym_out, double pivot_tol) {
  if (takes_reach(a))
    analyze_reach(a, pivot_tol, &sym_out);
  else
    *this = SparseLu(ScanTag{}, a, sym_out, pivot_tol);
}

template <typename T>
bool SparseLu<T>::refactor_from(const SparseLuSymbolic<T>& sym, const CscMatrix<T>& a,
                                double pivot_tol, SparseLuSymbolic<T>* repair,
                                bool* repaired) {
  if (!takes_reach(a)) return replay(sym, a, pivot_tol, repair, repaired);
  // Large sparse systems replay strictly: factorize()'s repair would finish
  // in scan mode. A drift repair equals a fresh analysis (see factorize()),
  // so re-analyze by reach instead.
  if (replay(sym, a, pivot_tol, nullptr, repaired)) return true;
  if (!repair || !sym.pattern_matches(a)) return false;
  analyze_reach(a, pivot_tol, repair);
  if (repaired) *repaired = true;
  return true;
}

template <typename T>
void SparseLu<T>::analyze_reach(const CscMatrix<T>& a, double pivot_tol,
                                SparseLuSymbolic<T>* sym_out) {
  if (a.rows() != a.cols()) throw std::invalid_argument("SparseLu requires square matrix");
  const std::size_t n = a.rows();
  // The reached steps, ascending, and per step the last column that
  // reached it.
  std::vector<std::size_t> reach, mark(n, kNoStep);
  n_ = n;
  l_col_ptr_.assign(n + 1, 0);
  u_col_ptr_.assign(n + 1, 0);
  l_row_idx_.clear();
  l_values_.clear();
  u_row_idx_.clear();
  u_values_.clear();
  perm_.assign(n, static_cast<std::size_t>(-1));
  perm_inv_.assign(n, static_cast<std::size_t>(-1));

  work_.assign(n, T{});      // dense column, original row coords
  occupied_.assign(n, 0);    // nonzero-pattern flags for `work_`
  pattern_.clear();          // rows currently occupied
  pivoted_.assign(n, 0);     // original row already chosen as pivot?

  const auto& acp = a.col_ptr();
  const auto& ari = a.row_idx();
  const auto& av = a.values();

  auto scatter = [&](std::size_t row, T value) {
    if (!occupied_[row]) {
      occupied_[row] = 1;
      pattern_.push_back(row);
    }
    work_[row] += value;
  };

  auto apply_update = [&](std::size_t k) {
    const std::size_t piv_row_k = perm_[k];
    if (!occupied_[piv_row_k]) return;
    const T ukj = work_[piv_row_k];
    if (ukj == T{}) return;
    for (std::size_t p = l_col_ptr_[k]; p < l_col_ptr_[k + 1]; ++p)
      scatter(l_row_idx_[p], -l_values_[p] * ukj);
  };

  std::vector<std::pair<std::size_t, T>> ucol;  // (elim step, value)
  for (std::size_t j = 0; j < n; ++j) {
    pattern_.clear();
    for (std::size_t p = acp[j]; p < acp[j + 1]; ++p) scatter(ari[p], av[p]);

    // Apply updates from previous elimination steps in ascending order: the
    // reach holds every step the full scan would apply, and the skips in
    // apply_update drop the rest exactly as they do for the scan.
    reach_ascending(j, ari.data() + acp[j], ari.data() + acp[j + 1], l_col_ptr_, l_row_idx_,
                    perm_inv_, mark, reach);
    for (const std::size_t k : reach) apply_update(k);

    // Choose pivot among rows not yet pivoted.
    std::size_t piv_row = static_cast<std::size_t>(-1);
    double best = pivot_tol;
    for (const std::size_t r : pattern_) {
      if (pivoted_[r]) continue;
      const double mag = std::abs(work_[r]);
      if (mag > best) {
        best = mag;
        piv_row = r;
      }
    }
    if (piv_row == static_cast<std::size_t>(-1)) throw SingularMatrixError(j);
    const T piv_val = work_[piv_row];

    // Emit U column j: previously pivoted rows, ordered by elimination step,
    // then the diagonal last (solve() relies on diagonal-last).
    ucol.clear();
    for (const std::size_t r : pattern_) {
      if (pivoted_[r] && work_[r] != T{}) ucol.emplace_back(perm_inv_[r], work_[r]);
    }
    std::sort(ucol.begin(), ucol.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [step, v] : ucol) {
      u_row_idx_.push_back(step);
      u_values_.push_back(v);
    }
    u_row_idx_.push_back(j);
    u_values_.push_back(piv_val);
    u_col_ptr_[j + 1] = u_values_.size();

    // Emit L column j (original row indices, scaled by pivot).
    for (const std::size_t r : pattern_) {
      if (!pivoted_[r] && r != piv_row && work_[r] != T{}) {
        l_row_idx_.push_back(r);
        l_values_.push_back(work_[r] / piv_val);
      }
    }
    l_col_ptr_[j + 1] = l_values_.size();

    perm_[j] = piv_row;
    perm_inv_[piv_row] = j;
    pivoted_[piv_row] = 1;

    for (const std::size_t r : pattern_) {
      work_[r] = T{};
      occupied_[r] = 0;
    }
  }
  if (!sym_out) return;

  // Structure-only closure under the now-pinned permutation, as in
  // factorize(): the same reachability with every structural entry treated
  // as nonzero, so the update lists cover any value assignment with this
  // pattern. The structural L (sl_*) lives only for this pass.
  SparseLuSymbolic<T>& s = *sym_out;
  s.n_ = n;
  s.perm_ = perm_;
  s.perm_inv_ = perm_inv_;
  s.pat_col_ptr_ = acp;
  s.pat_row_idx_ = ari;
  s.upd_ptr_.assign(n + 1, 0);
  s.upd_step_.clear();

  std::vector<std::size_t> sl_col_ptr(n + 1, 0);
  std::vector<std::size_t> sl_row_idx;
  std::vector<char> occ(n, 0);
  std::vector<std::size_t> pat;
  mark.assign(n, kNoStep);  // it holds the numeric pass's columns
  for (std::size_t j = 0; j < n; ++j) {
    pat.clear();
    auto touch = [&](std::size_t row) {
      if (!occ[row]) {
        occ[row] = 1;
        pat.push_back(row);
      }
    };
    for (std::size_t p = acp[j]; p < acp[j + 1]; ++p) touch(ari[p]);
    reach_ascending(j, ari.data() + acp[j], ari.data() + acp[j + 1], sl_col_ptr, sl_row_idx,
                    perm_inv_, mark, reach);
    // Every reached step's pivot row is touched by the time it comes up
    // (by A or by an earlier reached step), so each one is an update.
    for (const std::size_t k : reach) {
      s.upd_step_.push_back(k);
      for (std::size_t p = sl_col_ptr[k]; p < sl_col_ptr[k + 1]; ++p) touch(sl_row_idx[p]);
    }
    s.upd_ptr_[j + 1] = s.upd_step_.size();
    for (const std::size_t r : pat) {
      if (perm_inv_[r] > j) sl_row_idx.push_back(r);
      occ[r] = 0;
    }
    sl_col_ptr[j + 1] = sl_row_idx.size();
  }
  s.l_capacity_ = sl_row_idx.size();
  s.u_capacity_ = s.upd_step_.size() + n;
}

#define RFMIX_SPARSE_REACH_INSTANTIATE(T)                                                  \
  template bool SparseLu<T>::takes_reach(const CscMatrix<T>&);                              \
  template SparseLu<T>::SparseLu(const CscMatrix<T>&, double);                              \
  template SparseLu<T>::SparseLu(const CscMatrix<T>&, SparseLuSymbolic<T>&, double);        \
  template bool SparseLu<T>::refactor_from(const SparseLuSymbolic<T>&, const CscMatrix<T>&, \
                                           double, SparseLuSymbolic<T>*, bool*);            \
  template void SparseLu<T>::analyze_reach(const CscMatrix<T>&, double, SparseLuSymbolic<T>*);
RFMIX_SPARSE_REACH_INSTANTIATE(double)
RFMIX_SPARSE_REACH_INSTANTIATE(std::complex<double>)
#undef RFMIX_SPARSE_REACH_INSTANTIATE

}  // namespace rfmix::mathx
