"""Integration tests: every experiment harness reproduces the paper's shape.

These are the automated versions of the paper-vs-measured checks recorded in
EXPERIMENTS.md.  Each test runs the full harness (sometimes on a reduced
workload for speed) and asserts the qualitative claims of the corresponding
table/figure.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig1_loop,
    fig2_synthetic3d,
    fig3_x5_structure,
    fig5_convergence,
    fig6_whitening,
    fig8_bnc_iterations,
    fig9_segmentation,
    table1_ica_scores,
    table2_runtime,
)


@pytest.fixture(scope="module")
def fig2_result():
    return fig2_synthetic3d.run(seed=0)


@pytest.fixture(scope="module")
def table1_result():
    return table1_ica_scores.run(seed=0, n=600)


@pytest.fixture(scope="module")
def fig5_result():
    return fig5_convergence.run(max_sweeps_b=200)


@pytest.fixture(scope="module")
def fig6_result():
    return fig6_whitening.run(seed=0, n=800)


@pytest.fixture(scope="module")
def fig8_result():
    return fig8_bnc_iterations.run(seed=0)


@pytest.fixture(scope="module")
def fig9_result():
    return fig9_segmentation.run(seed=0)


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1_loop.run(seed=0)

    def test_scores_decrease_everywhere(self, result):
        assert result.all_scores_decrease()

    def test_knowledge_grows_everywhere(self, result):
        assert result.all_knowledge_increases()

    def test_knowledge_starts_at_zero(self, result):
        for trace in result.traces:
            assert trace.knowledge[0] == pytest.approx(0.0, abs=1e-9)

    def test_three_datasets_covered(self, result):
        assert len(result.traces) == 3
        assert "Fig. 1" in result.format_table()


class TestFig2:
    def test_first_view_shows_three_blobs(self, fig2_result):
        assert fig2_result.visible_clusters_first == 3

    def test_background_matches_after_constraints(self, fig2_result):
        # Score drops by orders of magnitude once the three visible
        # clusters are constrained.
        assert fig2_result.matched_view.scores[0] < 0.05 * fig2_result.first_view.scores[0]

    def test_ghost_displacement_shrinks(self, fig2_result):
        assert fig2_result.displacement_after < fig2_result.displacement_before

    def test_next_view_loads_on_x3(self, fig2_result):
        assert fig2_result.x3_weight_next > 0.8

    def test_overlapping_pair_resolves(self, fig2_result):
        assert fig2_result.split_separation > 2.0

    def test_format_table_renders(self, fig2_result):
        text = fig2_result.format_table()
        assert "Fig. 2" in text
        assert "3 blobs" in text


class TestFig3:
    def test_structure(self):
        result = fig3_x5_structure.run(seed=0)
        # A overlaps a *different* one of B/C/D in every panel.
        assert set(result.overlap_per_panel.values()) == {"B", "C", "D"}
        assert result.separable_45
        assert result.coupling_measured == pytest.approx(0.75, abs=0.07)
        assert "X̂5" in result.format_table()


class TestTable1:
    def test_top_scores_decay(self, table1_result):
        tops = table1_result.top_abs_scores
        assert tops[0] > tops[1] > tops[2]
        # The final stage must be close to fully explained.
        assert tops[2] < 0.35 * tops[0]

    def test_view_moves_to_dims_45_after_first_round(self, table1_result):
        # Stage 0 looks at dims 1-3; stage 1's top axis loads on dims 4-5.
        assert table1_result.loading_on_dims45[1] > 0.8
        assert table1_result.loading_on_dims45[1] > table1_result.loading_on_dims45[0]

    def test_five_scores_per_row(self, table1_result):
        for row in table1_result.score_rows:
            assert row.size == 5

    def test_format_table_renders(self, table1_result):
        assert "Table I" in table1_result.format_table()


class TestFig5:
    def test_case_a_fast_to_optimum(self, fig5_result):
        # "Convergence occurs after one pass": within the first sweep
        # (4 constraint steps) of reaching the 1/4 optimum.
        assert 0 < fig5_result.steps_to_optimum_a <= 4
        assert fig5_result.final_a == pytest.approx(0.25, abs=1e-3)

    def test_case_b_slow_inverse_decay(self, fig5_result):
        assert fig5_result.decay_exponent_b == pytest.approx(-1.0, abs=0.3)
        assert fig5_result.final_b < 0.01

    def test_case_b_needs_many_more_steps(self, fig5_result):
        assert fig5_result.trace_b.size > 10 * fig5_result.steps_to_optimum_a

    def test_traces_monotone_tail(self, fig5_result):
        tail = fig5_result.trace_b[-50:]
        assert np.all(np.diff(tail) <= 1e-12)


class TestFig6:
    def test_whitening_identity_at_stage_a(self, fig6_result):
        assert fig6_result.identity_max_error < 1e-10

    def test_dims_123_explained_dims_45_not_at_stage_b(self, fig6_result):
        mask = fig6_result.explained_after_stage1
        assert bool(np.all(mask[:3]))
        assert not bool(np.all(mask[3:]))

    def test_all_dims_explained_at_stage_c(self, fig6_result):
        assert bool(np.all(fig6_result.explained_after_stage2))

    def test_kurtosis_decays(self, fig6_result):
        a, b, c = fig6_result.max_abs_kurtosis
        assert a > b > c


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        # A tiny grid keeps this test fast while still checking shape.
        grid = {"n": (256, 1024), "d": (8, 16), "k": (1, 2)}
        original = table2_runtime.DEFAULT_GRID
        table2_runtime.DEFAULT_GRID = grid
        try:
            return table2_runtime.run(full_grid=False, repeats=1, seed=0)
        finally:
            table2_runtime.DEFAULT_GRID = original

    @pytest.fixture(scope="class")
    def best_of_5(self, result):
        """The harness's table with each OPTIM cell the best of 5 solves.

        Every solve of one cell runs the same sweeps, so the minimum over
        repeats is the cell's cost without the host's load spikes.  The
        repeats go round-robin over the cells, so load that lasts a while
        hits every cell alike instead of one side of a comparison.
        """
        from repro.core.solver import SolverOptions, solve_maxent
        from repro.datasets.runtime import runtime_constraints, runtime_dataset
        from repro.experiments.table2_runtime import RuntimeCell, Table2Result

        options = SolverOptions(time_cutoff=None, max_sweeps=200)
        ks = result.grid["k"]
        cells = {}
        for cell in result.cells:
            for k in ks:
                bundle = runtime_dataset(n=cell.n, d=cell.d, k=k, seed=0)
                cells[cell.n, cell.d, k] = (
                    bundle.data,
                    runtime_constraints(bundle),
                )
        best = dict.fromkeys(cells, np.inf)
        for _ in range(5):
            for key, (data, constraints) in cells.items():
                report = solve_maxent(data, constraints, options=options)[2]
                best[key] = min(best[key], report.optim_seconds)
        return Table2Result(
            cells=[
                RuntimeCell(
                    n=cell.n,
                    d=cell.d,
                    optim_by_k=tuple(best[cell.n, cell.d, k] for k in ks),
                    ica_by_k=cell.ica_by_k,
                )
                for cell in result.cells
            ],
            grid=result.grid,
            repeats=5,
        )

    def test_cells_cover_grid(self, result):
        assert len(result.cells) == 4
        assert all(len(c.optim_by_k) == 2 for c in result.cells)

    def test_optim_independent_of_n(self, best_of_5):
        # Max/min ratio across n at the largest (d, k): near 1, certainly
        # far from the 4x data-size ratio.
        assert best_of_5.optim_n_dependence() < 3.0

    def test_optim_grows_with_k(self, best_of_5):
        for cell in best_of_5.cells:
            assert cell.optim_by_k[-1] >= cell.optim_by_k[0]

    def test_format_table_renders(self, result):
        text = result.format_table()
        assert "Table II" in text
        assert "OPTIM" in text


class TestFig7And8:
    def test_first_selection_is_conversations(self, fig8_result):
        first = fig8_result.first_round
        assert first.best_class == "transcribed conversations"
        assert first.best_jaccard > 0.8   # paper: 0.928

    def test_second_selection_is_academic_plus_news(self, fig8_result):
        top_two = list(fig8_result.second_jaccards)[:2]
        assert set(top_two) == {"academic prose", "broadsheet newspaper"}
        assert fig8_result.combined_jaccard > 0.8  # combined cluster

    def test_scores_decay_across_rounds(self, fig8_result):
        s0, s1, s2 = fig8_result.top_scores
        assert s0 > s1 > s2
        assert s2 < 0.15 * s0

    def test_pairplot_present_in_first_frame(self, fig8_result):
        assert fig8_result.first_round.frame.pairplot is not None
        assert len(fig8_result.first_round.top_separating_attributes) > 0


class TestFig9:
    def test_initial_scale_mismatch(self, fig9_result):
        assert fig9_result.initial_scale_mismatch > 10.0

    def test_sky_selection_pure(self, fig9_result):
        assert fig9_result.sky_jaccard > 0.9    # paper: 1.0

    def test_grass_selection_pure(self, fig9_result):
        assert fig9_result.grass_jaccard > 0.9  # paper: 0.964

    def test_middle_blob_mixes_five_classes(self, fig9_result):
        values = list(fig9_result.middle_jaccards.values())
        assert len(values) == 5
        for v in values:
            assert 0.1 < v < 0.35               # paper: ~0.2 each

    def test_scores_drop_after_constraints(self, fig9_result):
        assert (
            fig9_result.score_after_constraints
            < fig9_result.score_before_constraints
        )

    def test_final_view_surfaces_outliers(self, fig9_result):
        assert fig9_result.top_extreme_is_outlier
        assert fig9_result.outlier_fraction_in_final_view >= 0.4
