"""CPA — Generic Crowdsourcing Consensus with Partial Agreement (paper §3–§4).

The model couples two nonparametric clusterings — worker *communities*
(requirement R1) and item *clusters* (R3) — through per-(cluster, community)
answer profiles ``ψ_tm``, yielding partial answer validity (R2) and
adaptivity (R4).  This package contains:

* :mod:`repro.core.config` / :mod:`repro.core.state` — hyperparameters and
  variational state;
* :mod:`repro.core.expectations` — the Appendix-B expectation identities;
* :mod:`repro.core.inference` — batch coordinate-ascent VI (Alg. 1) + ELBO;
* :mod:`repro.core.svi` — stochastic variational inference (Alg. 2), whose
  MAP phase fans out over an executor (Alg. 3);
* :mod:`repro.core.consensus` — cluster-consensus estimation (DESIGN.md §4.2);
* :mod:`repro.core.prediction` — greedy / exhaustive MAP label sets (§3.4);
* :mod:`repro.core.model` — the high-level :class:`CPAModel` API;
* :mod:`repro.core.diagnostics` — community/cluster summaries (Fig 9).
"""
