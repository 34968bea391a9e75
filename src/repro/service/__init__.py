"""Multi-tenant fleet admission service over the re-entrant campaign engine.

The paper's in-field integration workflow is interactive — vehicles submit
change requests, the Multi-Change Controller admits or rejects them, the
fleet evolves — and this package gives the repo that long-running shape:
:class:`~repro.service.admission.AdmissionService` accepts typed campaign
submissions from many tenants, drives each campaign's
:class:`~repro.fleet.engine.CampaignEngine` one wave per scheduling claim,
streams per-wave progress to subscribers, and exposes halt/resume/rollback
as API calls over the campaign checkpoint machinery.  Every tenant's result
is identical to an isolated run of its submission (see ``docs/SERVICE.md``
and the E17 benchmark).

``python -m repro.experiments serve`` runs a synthetic multi-tenant
workload against the service from the command line.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "admission": ["AdmissionService"],
    "schemas": ["CampaignStatus", "HaltRequest", "JobState", "ResumeRequest",
                "RollbackRequest", "ServiceError", "SubmitCampaign",
                "SubmitReceipt", "WaveProgress"],
})
