// Analyze-once/refactor-per-step contract of the sparse LU (docs/solver.md):
// a successful refactor_from() must be byte-identical to a fresh analyzing
// factorization of the same matrix, and any disagreement — pattern change,
// pivot drift, singular pinned pivot — must abort the refactor so the caller
// can re-analyze.
#include "mathx/sparse.hpp"

#include <cstring>
#include <gtest/gtest.h>

#include "gen/templates.hpp"
#include "mathx/lu.hpp"
#include "mathx/rng.hpp"
#include "spice/circuit.hpp"
#include "spice/mna.hpp"
#include "spice/op.hpp"
#include "spice/parser.hpp"

namespace rfmix::mathx {

struct SparseLuTestAccess {
  static const std::vector<std::size_t>& upd_ptr(const SparseLuSymbolic<double>& s) {
    return s.upd_ptr_;
  }
  static const std::vector<std::size_t>& upd_step(const SparseLuSymbolic<double>& s) {
    return s.upd_step_;
  }
  static const std::vector<std::size_t>& perm(const SparseLuSymbolic<double>& s) {
    return s.perm_;
  }
  static const std::vector<std::size_t>& perm_inv(const SparseLuSymbolic<double>& s) {
    return s.perm_inv_;
  }

  static bool takes_reach(const CscMatrix<double>& a) { return SparseLu<double>::takes_reach(a); }

  /// Analyze `a` through factorize()'s scan loop, bypassing takes_reach().
  static void analyze_by_scan(SparseLu<double>& lu, const CscMatrix<double>& a,
                              SparseLuSymbolic<double>& sym) {
    lu.factorize(a, 0.0, nullptr, &sym);
  }

  /// Replay `a` on `sym` through factorize()'s own drift repair (which
  /// finishes a drifted replay in scan mode), bypassing takes_reach().
  static bool repair_by_scan(SparseLu<double>& lu, const CscMatrix<double>& a,
                             SparseLuSymbolic<double>& sym) {
    bool drifted = false;
    lu.factorize(a, 0.0, &sym, &sym, &drifted);
    return drifted;
  }

  /// Equality of every field of two symbolics.
  static bool same_symbolic(const SparseLuSymbolic<double>& a, const SparseLuSymbolic<double>& b) {
    return a.n_ == b.n_ && a.perm_ == b.perm_ && a.perm_inv_ == b.perm_inv_ &&
           a.pat_col_ptr_ == b.pat_col_ptr_ && a.pat_row_idx_ == b.pat_row_idx_ &&
           a.upd_ptr_ == b.upd_ptr_ && a.upd_step_ == b.upd_step_ &&
           a.l_capacity_ == b.l_capacity_ && a.u_capacity_ == b.u_capacity_;
  }

  /// Byte equality of every stored factor array.
  static bool same_factors(const SparseLu<double>& a, const SparseLu<double>& b) {
    auto bits = [](const std::vector<double>& x, const std::vector<double>& y) {
      return x.size() == y.size() &&
             (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
    };
    return a.n_ == b.n_ && a.perm_ == b.perm_ && a.perm_inv_ == b.perm_inv_ &&
           a.l_col_ptr_ == b.l_col_ptr_ && a.l_row_idx_ == b.l_row_idx_ &&
           bits(a.l_values_, b.l_values_) && a.u_col_ptr_ == b.u_col_ptr_ &&
           a.u_row_idx_ == b.u_row_idx_ && bits(a.u_values_, b.u_values_);
  }
};

namespace {

/// Bitwise equality of two double vectors (0.0 vs -0.0 and NaN payloads
/// matter for the bit-exactness contract, so no operator== here).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A diagonally-dominant random sparse matrix: dense diagonal plus `extra`
/// random off-diagonal entries (duplicates allowed — they must merge the
/// same way through the map as through the constructor).
TripletMatrix<double> random_system(Rng& rng, std::size_t n, std::size_t extra) {
  TripletMatrix<double> t(n, n);
  for (std::size_t i = 0; i < n; ++i)
    t.add(i, i, 4.0 + rng.uniform());
  for (std::size_t k = 0; k < extra; ++k) {
    const std::size_t r = rng.next_u64() % n;
    const std::size_t c = rng.next_u64() % n;
    t.add(r, c, rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// New values on the exact entry sequence of `t` (same pattern by
/// construction), keeping the diagonal dominant so pivots stay pinned.
TripletMatrix<double> revalue(Rng& rng, const TripletMatrix<double>& t) {
  TripletMatrix<double> out(t.rows(), t.cols());
  for (std::size_t k = 0; k < t.entry_count(); ++k) {
    const bool diag = t.row_indices()[k] == t.col_indices()[k];
    out.add(t.row_indices()[k], t.col_indices()[k],
            diag ? 4.0 + rng.uniform() : rng.uniform(-1.0, 1.0));
  }
  return out;
}

std::vector<double> rhs(Rng& rng, std::size_t n) {
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

TEST(TripletCscMapTest, FillIsByteIdenticalToConstructor) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const auto t = random_system(rng, 12, 40);
    TripletCscMap<double> map;
    map.build(t);
    ASSERT_TRUE(map.matches(t));
    CscMatrix<double> filled;
    map.fill(t, filled);
    const CscMatrix<double> fresh(t);
    EXPECT_EQ(filled.col_ptr(), fresh.col_ptr());
    EXPECT_EQ(filled.row_idx(), fresh.row_idx());
    EXPECT_TRUE(same_bits(filled.values(), fresh.values()));
  }
}

TEST(TripletCscMapTest, SignedZeroDuplicateMergeMatchesConstructor) {
  // First hit must assign, not accumulate into T{}: 0.0 + (-0.0) == +0.0,
  // so an accumulate-from-zero fill would flip the sign bit.
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, -0.0);
  t.add(1, 1, 1.0);
  t.add(0, 1, -0.0);
  t.add(0, 1, -0.0);  // duplicate merge: -0.0 + -0.0 = -0.0
  TripletCscMap<double> map;
  map.build(t);
  CscMatrix<double> filled;
  map.fill(t, filled);
  const CscMatrix<double> fresh(t);
  EXPECT_TRUE(same_bits(filled.values(), fresh.values()));
  EXPECT_TRUE(std::signbit(filled.values()[0]));
}

TEST(TripletCscMapTest, MatchesRejectsPatternChange) {
  Rng rng(7);
  const auto t = random_system(rng, 8, 10);
  TripletCscMap<double> map;
  map.build(t);
  TripletMatrix<double> grown = t;
  grown.add(0, 7, 0.5);  // one extra stamp: different entry sequence
  EXPECT_FALSE(map.matches(grown));
  TripletMatrix<double> reordered(t.rows(), t.cols());
  for (std::size_t k = t.entry_count(); k-- > 0;)
    reordered.add(t.row_indices()[k], t.col_indices()[k], t.values()[k]);
  EXPECT_FALSE(map.matches(reordered));
}

TEST(SparseLuRefactorTest, RefactorReproducesAnalyzeBitExactly) {
  Rng rng(1);
  const auto t0 = random_system(rng, 16, 60);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> first(CscMatrix<double>(t0), sym);
  ASSERT_FALSE(sym.empty());

  TripletCscMap<double> map;
  map.build(t0);
  for (int step = 0; step < 10; ++step) {
    const auto t = revalue(rng, t0);
    ASSERT_TRUE(map.matches(t));
    CscMatrix<double> a;
    map.fill(t, a);
    ASSERT_TRUE(sym.pattern_matches(a));

    SparseLu<double> fast;
    ASSERT_TRUE(fast.refactor_from(sym, a)) << "step " << step;
    const SparseLu<double> slow(a);

    const auto b = rhs(rng, 16);
    EXPECT_TRUE(same_bits(fast.solve(b), slow.solve(b))) << "step " << step;
    EXPECT_TRUE(same_bits(fast.solve_transposed(b), slow.solve_transposed(b)))
        << "step " << step;
  }
}

TEST(SparseLuRefactorTest, RefactorTargetBuffersAreReusable) {
  // A Newton loop refactors into the same SparseLu object every iteration.
  Rng rng(2);
  const auto t0 = random_system(rng, 10, 30);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t0), sym);
  SparseLu<double> lu;
  for (int step = 0; step < 5; ++step) {
    const CscMatrix<double> a(revalue(rng, t0));
    ASSERT_TRUE(lu.refactor_from(sym, a));
    const auto b = rhs(rng, 10);
    EXPECT_TRUE(same_bits(lu.solve(b), SparseLu<double>(a).solve(b)));
  }
}

TEST(SparseLuRefactorTest, PatternMismatchRefusesToRefactor) {
  Rng rng(3);
  const auto t0 = random_system(rng, 8, 12);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t0), sym);

  TripletMatrix<double> grown = t0;
  grown.add(0, 7, 1e-3);
  const CscMatrix<double> a(grown);
  if (a.nnz() != CscMatrix<double>(t0).nnz()) {
    EXPECT_FALSE(sym.pattern_matches(a));
    SparseLu<double> lu;
    EXPECT_FALSE(lu.refactor_from(sym, a));
    EXPECT_EQ(lu.size(), 0u);
  }
}

TEST(SparseLuRefactorTest, PivotDriftRefusesToRefactor) {
  // Analyze pins the pivot of column 0 at row 1 (|3| > |1|); the new values
  // reverse the magnitudes, so honest partial pivoting would now choose row
  // 0. Producing factors with the stale pivot order would deviate from the
  // analyzing path, so the refactor must refuse.
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 0, 3.0);
  t.add(0, 1, 2.0);
  t.add(1, 1, 1.0);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t), sym);

  TripletMatrix<double> flipped(2, 2);
  flipped.add(0, 0, 3.0);
  flipped.add(1, 0, 1.0);
  flipped.add(0, 1, 2.0);
  flipped.add(1, 1, 1.0);
  SparseLu<double> lu;
  EXPECT_FALSE(lu.refactor_from(sym, CscMatrix<double>(flipped)));

  // The caller's fallback — a fresh analysis — handles the same matrix.
  const CscMatrix<double> a(flipped);
  const SparseLu<double> fresh(a);
  const std::vector<double> b{1.0, 2.0};
  const auto x = fresh.solve(b);
  const auto ax = a.multiply(x);
  EXPECT_NEAR(ax[0], b[0], 1e-12);
  EXPECT_NEAR(ax[1], b[1], 1e-12);
}

TEST(SparseLuRefactorTest, PivotDriftRepairsWhenAsked) {
  // Same drifting system as above, but with a repair symbolic supplied: the
  // factorization must adopt the freshly scanned pivot, produce factors
  // byte-identical to a fresh analysis, and rewrite the repair symbolic so
  // the *next* refactor of the new value regime replays strictly.
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 0, 3.0);
  t.add(0, 1, 2.0);
  t.add(1, 1, 1.0);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t), sym);

  TripletMatrix<double> flipped(2, 2);
  flipped.add(0, 0, 3.0);
  flipped.add(1, 0, 1.0);
  flipped.add(0, 1, 2.0);
  flipped.add(1, 1, 1.0);
  const CscMatrix<double> a(flipped);

  SparseLu<double> lu;
  bool repaired = false;
  ASSERT_TRUE(lu.refactor_from(sym, a, 0.0, &sym, &repaired));  // aliased, as
  EXPECT_TRUE(repaired);  // SolverSession passes its own symbolic as repair
  const SparseLu<double> fresh(a);
  const std::vector<double> b{1.0, 2.0};
  EXPECT_TRUE(same_bits(lu.solve(b), fresh.solve(b)));
  EXPECT_TRUE(same_bits(lu.solve_transposed(b), fresh.solve_transposed(b)));

  // The repaired symbolic now pins the new pivot order: a strict replay of
  // the same values succeeds, and of the *original* values drifts again.
  SparseLu<double> again;
  EXPECT_TRUE(again.refactor_from(sym, a));
  EXPECT_TRUE(same_bits(again.solve(b), fresh.solve(b)));
  EXPECT_FALSE(again.refactor_from(sym, CscMatrix<double>(t)));
}

TEST(SparseLuRefactorTest, CleanReplayLeavesRepairSymbolicUntouched) {
  Rng rng(11);
  const auto t0 = random_system(rng, 12, 30);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t0), sym);
  // Dominant diagonals keep the pivots pinned, so the repair path must not
  // engage — and `repaired` is the only way callers count analyze vs
  // refactor, so a false positive would corrupt the obs counters.
  for (int step = 0; step < 5; ++step) {
    const CscMatrix<double> a(revalue(rng, t0));
    SparseLu<double> lu;
    bool repaired = true;
    ASSERT_TRUE(lu.refactor_from(sym, a, 0.0, &sym, &repaired));
    EXPECT_FALSE(repaired) << "step " << step;
    const auto b = rhs(rng, 12);
    EXPECT_TRUE(same_bits(lu.solve(b), SparseLu<double>(a).solve(b)));
  }
}

TEST(SparseLuRefactorTest, RepairSingularDriftColumnThrowsLikeAnalyze) {
  // If the drift column has no admissible pivot, repair must surface the
  // same SingularMatrixError the analyzing constructor would, not return a
  // half-factored object.
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, 2.0);
  t.add(1, 1, 2.0);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t), sym);

  TripletMatrix<double> degenerate(2, 2);
  degenerate.add(0, 0, 0.0);
  degenerate.add(1, 1, 2.0);
  const CscMatrix<double> a(degenerate);
  SparseLu<double> lu;
  SparseLuSymbolic<double> repair_target = sym;
  EXPECT_THROW(lu.refactor_from(sym, a, 0.0, &repair_target), SingularMatrixError);
  EXPECT_THROW(SparseLu<double>{a}, SingularMatrixError);
}

TEST(SparseLuRefactorTest, FuzzRepairAgainstAnalyze) {
  // Adversarial twin of FuzzRefactorAgainstAnalyze: weak diagonals make
  // pivot drift common, and every repaired factorization must still be
  // byte-identical to a fresh analysis of the same values.
  Rng rng(0xBADD1E);
  int repairs = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 4 + rng.next_u64() % 16;
    TripletMatrix<double> t0(n, n);
    for (std::size_t i = 0; i < n; ++i) t0.add(i, i, rng.uniform(0.5, 1.5));
    for (std::size_t k = 0; k < 2 * n; ++k)
      t0.add(rng.next_u64() % n, rng.next_u64() % n, rng.uniform(-2.0, 2.0));
    SparseLuSymbolic<double> sym;
    const SparseLu<double> analyzed(CscMatrix<double>(t0), sym);
    TripletCscMap<double> map;
    map.build(t0);
    for (int step = 0; step < 4; ++step) {
      TripletMatrix<double> t(n, n);
      for (std::size_t k = 0; k < t0.entry_count(); ++k)
        t.add(t0.row_indices()[k], t0.col_indices()[k],
              t0.row_indices()[k] == t0.col_indices()[k] ? rng.uniform(0.5, 1.5)
                                                         : rng.uniform(-2.0, 2.0));
      CscMatrix<double> a;
      map.fill(t, a);
      SparseLu<double> lu;
      bool repaired = false;
      ASSERT_TRUE(lu.refactor_from(sym, a, 0.0, &sym, &repaired))
          << "trial " << trial << " step " << step;
      if (repaired) ++repairs;
      const auto b = rhs(rng, n);
      EXPECT_TRUE(same_bits(lu.solve(b), SparseLu<double>(a).solve(b)))
          << "trial " << trial << " step " << step << " repaired=" << repaired;
    }
  }
  EXPECT_GT(repairs, 20) << "weak diagonals should have drifted often";
}

TEST(SparseLuRefactorTest, SingularPinnedPivotRefusesToRefactor) {
  TripletMatrix<double> t(2, 2);
  t.add(0, 0, 2.0);
  t.add(1, 1, 2.0);
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(CscMatrix<double>(t), sym);

  TripletMatrix<double> degenerate(2, 2);
  degenerate.add(0, 0, 0.0);  // pinned pivot value collapses to zero
  degenerate.add(1, 1, 2.0);
  SparseLu<double> lu;
  EXPECT_FALSE(lu.refactor_from(sym, CscMatrix<double>(degenerate)));
  // And the analyzing path agrees the matrix is singular.
  EXPECT_THROW(SparseLu<double>(CscMatrix<double>(degenerate)),
               SingularMatrixError);
}

TEST(SparseLuRefactorTest, FuzzRefactorAgainstAnalyze) {
  // Randomized sweep with a fixed seed: many shapes and densities, each
  // analyzed once and refactored through several value changes. Every
  // refactor either succeeds byte-exactly or refuses; refusal is only
  // acceptable here for pivot drift, which dominant diagonals make rare —
  // when it happens, the fallback analyze must still solve correctly.
  Rng rng(0xC0FFEE);
  int refactors = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 4 + rng.next_u64() % 20;
    const std::size_t extra = rng.next_u64() % (3 * n);
    const auto t0 = random_system(rng, n, extra);
    SparseLuSymbolic<double> sym;
    const SparseLu<double> analyzed(CscMatrix<double>(t0), sym);
    TripletCscMap<double> map;
    map.build(t0);
    for (int step = 0; step < 4; ++step) {
      const auto t = revalue(rng, t0);
      CscMatrix<double> a;
      map.fill(t, a);
      SparseLu<double> lu;
      const auto b = rhs(rng, n);
      if (lu.refactor_from(sym, a)) {
        ++refactors;
        EXPECT_TRUE(same_bits(lu.solve(b), SparseLu<double>(a).solve(b)))
            << "trial " << trial << " step " << step;
      } else {
        const auto x = SparseLu<double>(a).solve(b);
        const auto ax = a.multiply(x);
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_NEAR(ax[i], b[i], 1e-9) << "trial " << trial;
      }
    }
  }
  // The dominant diagonal keeps pivots pinned, so nearly every step should
  // have taken the fast path; a refactor that never engages would make this
  // whole suite vacuous.
  EXPECT_GT(refactors, 100);
}

// ---------------------------------------------------------------------------
// Reach-path oracle. Analyze mode finds each column's updates by the
// Gilbert–Peierls reach on large sparse systems and by scanning every
// earlier step on small or dense ones. The reference below is the full-scan
// structural closure, kept verbatim here: the symbolic the kernel exports
// must equal it list for list, and the matrices are large and sparse enough
// that the kernel takes the reach path.
// ---------------------------------------------------------------------------

struct ReferenceSymbolic {
  std::vector<std::size_t> upd_ptr, upd_step;
  std::size_t l_capacity = 0, u_capacity = 0;
};

/// O(n^2) structure-only closure under a pinned permutation.
ReferenceSymbolic full_scan_closure(const CscMatrix<double>& a,
                                    const std::vector<std::size_t>& perm,
                                    const std::vector<std::size_t>& perm_inv) {
  const std::size_t n = a.cols();
  const auto& acp = a.col_ptr();
  const auto& ari = a.row_idx();
  ReferenceSymbolic s;
  s.upd_ptr.assign(n + 1, 0);
  std::vector<std::size_t> sl_col_ptr(n + 1, 0);
  std::vector<std::size_t> sl_row_idx;
  std::vector<char> occ(n, 0);
  std::vector<std::size_t> pat;
  for (std::size_t j = 0; j < n; ++j) {
    pat.clear();
    auto touch = [&](std::size_t row) {
      if (!occ[row]) {
        occ[row] = 1;
        pat.push_back(row);
      }
    };
    for (std::size_t p = acp[j]; p < acp[j + 1]; ++p) touch(ari[p]);
    for (std::size_t k = 0; k < j; ++k) {
      if (!occ[perm[k]]) continue;
      s.upd_step.push_back(k);
      for (std::size_t p = sl_col_ptr[k]; p < sl_col_ptr[k + 1]; ++p) touch(sl_row_idx[p]);
    }
    s.upd_ptr[j + 1] = s.upd_step.size();
    for (const std::size_t r : pat) {
      if (perm_inv[r] > j) sl_row_idx.push_back(r);
      occ[r] = 0;
    }
    sl_col_ptr[j + 1] = sl_row_idx.size();
  }
  s.l_capacity = sl_row_idx.size();
  s.u_capacity = s.upd_step.size() + n;
  return s;
}

/// The exported symbolic equals the full-scan closure of `a` under the
/// symbolic's own pivot order.
void expect_matches_full_scan(const CscMatrix<double>& a, const SparseLuSymbolic<double>& sym,
                              const std::string& what) {
  using A = SparseLuTestAccess;
  const auto& perm = A::perm(sym);
  const auto& perm_inv = A::perm_inv(sym);
  ASSERT_EQ(perm.size(), a.cols()) << what;
  for (std::size_t k = 0; k < perm.size(); ++k) ASSERT_EQ(perm_inv[perm[k]], k) << what;
  const ReferenceSymbolic ref = full_scan_closure(a, perm, perm_inv);
  EXPECT_EQ(A::upd_ptr(sym), ref.upd_ptr) << what;
  EXPECT_EQ(A::upd_step(sym), ref.upd_step) << what;
  EXPECT_EQ(sym.l_capacity(), ref.l_capacity) << what;
  EXPECT_EQ(sym.u_capacity(), ref.u_capacity) << what;
}

/// The Jacobian of a generated rx_array at its DC operating point.
CscMatrix<double> rx_array_jacobian(int elements) {
  gen::GenSpec spec;
  spec.template_id = "rx_array";
  spec.elements = elements;
  spec.paths = 4;
  spec.sections = 6;
  spec.zbb_c = 2e-12;
  spec.mismatch = 0.05;
  spec.seed = 1;
  spice::Circuit ckt = spice::parse_netlist(gen::render_netlist(spec));
  const spice::Solution x = spice::dc_operating_point(ckt);
  const std::size_t n = static_cast<std::size_t>(ckt.layout().size());
  TripletMatrix<double> g(n, n);
  VectorD b(n, 0.0);
  spice::StampParams sp;
  sp.mode = spice::AnalysisMode::kDc;
  spice::assemble_real(ckt, x, sp, spice::NewtonOptions{}.gmin, g, b);
  return CscMatrix<double>(g);
}

/// A large banded system with a few long-range couplings, shaped like an
/// MNA matrix: bounded fill, so analyze takes the reach path. `zeros` of
/// the off-diagonal stamps are exactly 0.0, which drops them from the
/// numeric L and exercises the value-dependent skips; `weak_from` is the
/// first column whose diagonal no longer dominates (pivots may drift
/// there).
TripletMatrix<double> banded_system(Rng& rng, std::size_t n, double zeros,
                                    std::size_t weak_from) {
  TripletMatrix<double> t(n, n);
  for (std::size_t c = 0; c < n; ++c) {
    t.add(c, c, c < weak_from ? 8.0 + rng.uniform() : rng.uniform(0.2, 1.2));
    for (int e = 0; e < 3; ++e) {
      const std::size_t off = 1 + rng.next_u64() % 6;
      const std::size_t r = rng.uniform() < 0.5 ? (c >= off ? c - off : c + off)
                                                : std::min(n - 1, c + off);
      t.add(r, c, rng.uniform() < zeros ? 0.0 : rng.uniform(-1.0, 1.0));
    }
    if (rng.uniform() < 0.02) t.add(rng.next_u64() % n, c, rng.uniform(-0.5, 0.5));
  }
  return t;
}

/// New values on the entry sequence of `t`, no exact zeros, diagonals as
/// dominant as banded_system() made them up to `weak_from`.
TripletMatrix<double> revalue_banded(Rng& rng, const TripletMatrix<double>& t,
                                     std::size_t weak_from) {
  TripletMatrix<double> out(t.rows(), t.cols());
  for (std::size_t k = 0; k < t.entry_count(); ++k) {
    const std::size_t r = t.row_indices()[k], c = t.col_indices()[k];
    const double v = r != c ? rng.uniform(-1.0, 1.0)
                            : (c < weak_from ? 8.0 + rng.uniform() : rng.uniform(0.2, 1.2));
    out.add(r, c, v);
  }
  return out;
}

TEST(SparseLuReachTest, RxArrayJacobianMatchesFullScan) {
  using A = SparseLuTestAccess;
  const CscMatrix<double> a = rx_array_jacobian(256);
  ASSERT_EQ(a.cols(), 7936u);
  ASSERT_TRUE(A::takes_reach(a));
  SparseLuSymbolic<double> sym;
  const SparseLu<double> analyzed(a, sym);
  expect_matches_full_scan(a, sym, "rx_array 256");
  SparseLu<double> replayed;
  ASSERT_TRUE(replayed.refactor_from(sym, a));
  EXPECT_TRUE(A::same_factors(analyzed, replayed));
  EXPECT_TRUE(A::same_factors(analyzed, SparseLu<double>(a)));

  // The reach loop and the scan loop of sparse.cpp on the same matrix.
  SparseLuSymbolic<double> scan_sym;
  SparseLu<double> scanned;
  A::analyze_by_scan(scanned, a, scan_sym);
  EXPECT_TRUE(A::same_factors(analyzed, scanned));
  EXPECT_TRUE(A::same_symbolic(sym, scan_sym));
}

TEST(SparseLuReachTest, FuzzLargeSparseAgainstFullScan) {
  Rng rng(0x6E11);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 400 + rng.next_u64() % 1200;
    const auto t0 = banded_system(rng, n, 0.15, n);
    const CscMatrix<double> a0(t0);
    SparseLuSymbolic<double> sym;
    const SparseLu<double> analyzed(a0, sym);
    const std::string what = "trial " + std::to_string(trial) + " n=" + std::to_string(n);
    ASSERT_TRUE(SparseLuTestAccess::takes_reach(a0)) << what;
    expect_matches_full_scan(a0, sym, what);
    SparseLuSymbolic<double> scan_sym;
    SparseLu<double> scanned;
    SparseLuTestAccess::analyze_by_scan(scanned, a0, scan_sym);
    EXPECT_TRUE(SparseLuTestAccess::same_factors(analyzed, scanned)) << what;
    EXPECT_TRUE(SparseLuTestAccess::same_symbolic(sym, scan_sym)) << what;
    SparseLu<double> lu;
    ASSERT_TRUE(lu.refactor_from(sym, a0)) << what;
    EXPECT_TRUE(SparseLuTestAccess::same_factors(analyzed, lu)) << what;

    // Values where the analyzed matrix had exact zeros: updates the numeric
    // L skipped now fire, and only the structural closure has them.
    TripletCscMap<double> map;
    map.build(t0);
    for (int step = 0; step < 3; ++step) {
      CscMatrix<double> a;
      map.fill(revalue_banded(rng, t0, n), a);
      ASSERT_TRUE(lu.refactor_from(sym, a)) << what << " step " << step;
      EXPECT_TRUE(SparseLuTestAccess::same_factors(lu, SparseLu<double>(a)))
          << what << " step " << step;
    }
  }
}

TEST(SparseLuReachTest, FuzzLargeSparseDriftRepairAgainstFullScan) {
  // Dominant diagonals in the first half pin those pivots; weak ones in
  // the second half drift deep into the matrix. The repair (a fresh reach
  // analysis) must equal factorize()'s own repair, which continues the
  // drifted replay in scan mode.
  using A = SparseLuTestAccess;
  Rng rng(0xD21F7);
  int repairs = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 400 + rng.next_u64() % 1200;
    const std::size_t weak_from = n / 2;
    const auto t0 = banded_system(rng, n, 0.1, weak_from);
    // One factor object throughout, analyzed first, as SolverSession keeps
    // it: a repair must not trip over the reach state of an earlier call.
    SparseLuSymbolic<double> sym;
    SparseLu<double> lu(CscMatrix<double>(t0), sym);
    SparseLuSymbolic<double> scan_sym = sym;
    SparseLu<double> scan_lu;
    TripletCscMap<double> map;
    map.build(t0);
    for (int step = 0; step < 3; ++step) {
      const std::string what = "trial " + std::to_string(trial) + " step " +
                               std::to_string(step) + " n=" + std::to_string(n);
      CscMatrix<double> a;
      map.fill(revalue_banded(rng, t0, weak_from), a);
      ASSERT_TRUE(A::takes_reach(a)) << what;
      bool repaired = false;
      ASSERT_TRUE(lu.refactor_from(sym, a, 0.0, &sym, &repaired)) << what;
      EXPECT_TRUE(A::same_factors(lu, SparseLu<double>(a))) << what;
      EXPECT_EQ(A::repair_by_scan(scan_lu, a, scan_sym), repaired) << what;
      EXPECT_TRUE(A::same_factors(lu, scan_lu)) << what;
      EXPECT_TRUE(A::same_symbolic(sym, scan_sym)) << what;
      if (repaired) {
        ++repairs;
        expect_matches_full_scan(a, sym, what);
      }
    }
  }
  EXPECT_GT(repairs, 10) << "weak diagonals should have drifted often";
}

}  // namespace
}  // namespace rfmix::mathx
