"""Self-time accounting, interval union, the percentile rule and the
span recorder's parent/job bookkeeping."""

import threading

import pytest

from spans import Tracer, merged_length, self_times, tail_percentile


def test_merged_length_counts_overlap_once():
    assert merged_length([]) == 0
    assert merged_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert merged_length([(0, 10), (2, 3), (3, 4)]) == 10


def test_self_time_subtracts_union_of_overlapping_children():
    # parent [0, 100); children [10, 40) and [30, 60) overlap: union 50.
    start = [0, 10, 30]
    end = [100, 40, 60]
    parent = [-1, 0, 0]
    thread = [0, 0, 0]
    assert self_times(start, end, parent, thread) == [50, 30, 30]


def test_self_time_clips_children_to_parent_and_ignores_other_threads():
    # child 1 overruns the parent's end; child 2 runs on a worker thread
    # and must not subtract; grandchild 3 subtracts only from child 1.
    start = [0, 80, 10, 90]
    end = [100, 130, 90, 95]
    parent = [-1, 0, 0, 1]
    thread = [0, 0, 1, 0]
    own = self_times(start, end, parent, thread)
    assert own[0] == 80  # 100 minus [80, 100) of child 1
    assert own[1] == 45  # 50 minus grandchild's 5
    assert own[2] == 80  # worker span keeps its whole duration
    assert own[3] == 5


@pytest.mark.parametrize(
    "n, pct, index",
    [
        (101, 90.0, 90),  # exactly ten samples beyond p90
        (200, 100.0 * 179 / 199, 179),
        (60, 100.0 * 49 / 59, 49),  # p90 has only 6 beyond: step down
        (21, 50.0, 10),  # highest qualifying is the median itself
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct, index):
    values = [float(v) for v in range(n)]
    got_pct, got = tail_percentile(values)
    assert got_pct == pytest.approx(pct)
    assert got == values[index]
    assert sum(v > got for v in values) >= 10


def test_tail_percentile_falls_back_to_median_on_few_samples():
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0)
    assert tail_percentile([1.0, 2.0]) == (50.0, 1.5)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_tracer_parents_and_cross_thread_job_root():
    tr = Tracer()
    tr.job_id = 7
    with tr.span("bench.job") as root:
        tr.job_root = root
        with tr.span("solver.iter") as child:
            pass
        worker = threading.Thread(target=lambda: tr.close(tr.open(tr.name_id("sparse.spmv"))))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    a = tr.arrays()
    assert len(tr) == 3
    assert a["parent"].tolist() == [-1, root, root]
    assert a["job"].tolist() == [7, 7, 7]
    assert a["thread"][2] != a["thread"][0] == a["thread"][child]
    own = self_times(a["start"], a["end"], a["parent"], a["thread"])
    job_len = a["end"][0] - a["start"][0]
    # Only the same-thread child subtracts from the job span.
    assert own[0] == job_len - (a["end"][1] - a["start"][1])


def test_tracer_wrap_records_and_preserves_result():
    tr = Tracer()
    add = tr.wrap(lambda x, y: x + y, "kernels.vector")
    assert add(2, 3) == 5
    assert tr.names[tr.name[0]] == "kernels.vector"
    assert tr.end[0] >= tr.start[0]
