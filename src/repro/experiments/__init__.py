"""Reproductions of every table and figure in the paper's evaluation.

Each paper module is runnable (``python -m repro.experiments.fig3``) and
exposes a ``run_*`` function returning structured results; the
``benchmarks/`` directory wraps these in plain pytest targets.  The
beyond-paper ``showdown`` / ``sharding`` / ``scenario_matrix`` results
are counts, run and gated for equality by one entry point,
``python -m repro.experiments.counted``; nothing here times anything
but the paper's own "rate" column -- timings are ``python3 -m bench``.

=================  ==========================================
Module             Paper artifact
=================  ==========================================
``fig3``           Fig. 3  (PCC violations vs CT size / update rate;
                   with ``fig4`` the bounded-LRU identity check: their
                   committed ``results/*.json`` regenerate byte for byte)
``fig4``           Fig. 4a+4b (PCC violations vs CT size / horizon)
``fig5``           Fig. 5  (max oversubscription vs rates)
``fig6``           Fig. 6a+6b (flow-size histograms)
``fig7``           Fig. 7  (Zipf sweep: oversub / tracked / rate)
``table12``        Tables 1-2 (UNI1-like, NY18-like traces)
``theory``         Theorems 4.2-4.4, Prop. 4.1, Property 1, §2.4
``extensions``     §6.1 batch changes, §6.3 load-aware JET
``lb_pool``        §6.2 LB pools behind ECMP, CT sync economy
``resilience``     beyond-paper: PCC under chaos (repro.faults),
                   §2.3 contract check, tracking under churn
``control_loop``   beyond-paper: closed-loop control plane
``counted``        beyond-paper: state bytes / PCC under churn
                   (``showdown``), per-shard CT cost (``sharding``),
                   scenario envelopes (``scenario_matrix``) vs the
                   committed ``BENCH_dataplane.json``
=================  ==========================================
"""

from repro.experiments.scales import base_config, repeats, scale_name, trace_scale, zipf_params

__all__ = ["base_config", "scale_name", "trace_scale", "zipf_params", "repeats"]
