"""Driving-function substrate (Sections IV and V).

The paper's functional self-awareness concepts are exercised against this
simulated vehicle: longitudinal dynamics of an ego vehicle following lead
traffic, environment effects (fog, rain, ambient temperature), sensor models
whose data quality degrades with the environment and injected faults, a
simple object tracker, driver-intent estimation, actuators (powertrain and
brakes, including the drive-train braking fallback used in the rear-brake
intrusion example) and an ACC controller.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "dynamics": ["VehicleParameters", "VehicleState", "LongitudinalDynamics"],
    "environment": ["Weather", "WeatherCondition", "Environment",
                    "LeadVehicle"],
    "sensors": ["Sensor", "RadarSensor", "CameraSensor", "LidarSensor",
                "SensorFault", "SensorReading"],
    "tracking": ["ObjectTracker", "TrackedObject"],
    "driver": ["DriverIntentEstimator", "DriverIntent"],
    "actuators": ["Actuator", "BrakeActuator", "PowertrainActuator",
                  "ActuatorFault"],
    "acc": ["AccController", "AccConfig", "AccStatus"],
})
