"""Reproductions of every table and figure in the paper's evaluation.

Each module exposes ``run_*`` functions returning structured results and
describes what it publishes once, as ``report.Experiment`` entries; the
name -> module table, the one publisher and ``repro experiment``'s flags
live in :mod:`repro.experiments.report` (``python -m
repro.experiments.fig3`` is ``python -m repro experiment fig3``, and
``benchmarks/`` renders through the same entries).  The beyond-paper
``showdown`` / ``sharding`` / ``scenario_matrix`` results are counts, run
and gated for equality by ``python -m repro.experiments.counted``;
nothing here times anything but the paper's own "rate" column.

================  ================  ================================
``experiment``    Module            Artifact
================  ================  ================================
``fig3``          ``fig3``          Fig. 3 (PCC violations vs CT size / update
                                    rate; with ``fig4`` the bounded-LRU check)
``fig4``          ``fig4``          Fig. 4a+4b (... vs CT size / horizon)
``fig5``          ``fig5``          Fig. 5 (max oversubscription vs rates)
``fig6``          ``fig6``          Fig. 6a+6b (flow-size histograms)
``fig7``          ``fig7``          Fig. 7 (Zipf sweep)
``table1/2``      ``table12``       Tables 1-2 (UNI1-, NY18-like traces)
``theory``        ``theory``        Thms 4.2-4.4, Prop. 4.1, Property 1, §2.4
``extensions``    ``extensions``    §6.1 batch changes, §6.3 load-aware JET
``lbpool``        ``lb_pool``       §6.2 LB pools behind ECMP, CT sync economy
``resilience``    ``resilience``    beyond-paper: PCC under chaos, §2.3
                                    contract check, tracking under churn
``control-loop``  ``control_loop``  beyond-paper: closed-loop control plane
(own ``main``)    ``counted``       beyond-paper: ``showdown``, ``sharding``,
                                    ``scenario_matrix`` vs the committed
                                    ``BENCH_dataplane.json``
================  ================  ================================
"""

from repro.experiments.scales import base_config, repeats, scale_name, trace_scale, zipf_params

__all__ = ["base_config", "scale_name", "trace_scale", "zipf_params", "repeats"]
