"""Cross-layer self-awareness — the paper's primary contribution (Section V).

The core package combines the per-layer building blocks (platform
monitoring, communication/security monitoring, safety mechanisms, ability
graphs, driving objectives) into a *coherent vehicle self-awareness*:

* :mod:`repro.core.layers` — the layer model (platform, communication,
  safety, ability, objective) and the handler interface each layer exposes.
* :mod:`repro.core.self_model` — the consistent self-representation
  aggregating metrics and states from all layers.
* :mod:`repro.core.countermeasures` — the catalogue of reactions each layer
  can offer.
* :mod:`repro.core.arbitration` — the cross-layer coordinator that routes a
  detected anomaly to the most appropriate layer, escalates when a layer
  cannot handle it, and guarantees that problems are not forwarded
  ad infinitum.
* :mod:`repro.core.awareness` — the observe–decide–act self-awareness loop.
* :mod:`repro.core.vehicle_system` — a facade wiring a complete self-aware
  vehicle out of the substrates (used by the examples and scenarios).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "layers": ["Layer", "LayerHandler", "LAYER_ORDER"],
    "self_model": ["SelfModel", "SelfModelSnapshot"],
    "countermeasures": ["Countermeasure", "CountermeasureCatalog",
                        "Resolution"],
    "arbitration": ["ArbitrationPolicy", "CrossLayerCoordinator",
                    "EscalationRecord"],
    "awareness": ["SelfAwarenessLoop", "AwarenessCycleResult"],
    "vehicle_system": ["SelfAwareVehicle", "VehicleSystemConfig"],
})
