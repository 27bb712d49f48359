"""The transient verdict check rejects an ample reduction that drops violations."""

from repro.modelcheck.por import ample

from perfbench import workloads


def test_probe_passes_the_programs_reduction():
    assert workloads.por_probe() is None


def test_probe_rejects_an_unsound_ample_selection(monkeypatch):
    def one_delivery(self, state, enabled):
        return ample.AmpleChoice(tuple(enabled[:1]), reduced=len(enabled) > 1)

    monkeypatch.setattr(ample.AmpleSelector, "select", one_delivery)
    reason = workloads.por_probe()
    assert reason is not None and "complete run" in reason
