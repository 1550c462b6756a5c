// SPI temperature sensor and its publishing agent.
//
// The paper's intro motivates the middleware with sensors/actuators on
// low-cost nodes. This module supplies that end of the stack: a stateful
// SPI peripheral (the kind that hangs off a TpWIRE slave's SPI port) and an
// agent that polls it over the bus via Master::spi_transfer and publishes
// readings into the space — tuples ("temperature", node, centi_degrees)
// with a freshness lease, so stale readings evaporate by themselves.
//
// Sensor SPI protocol (modeled on small thermometer chips):
//   0x01 -> start conversion, response = status (0xB0 | busy bit)
//   0x00 -> read next result byte: high then low (centi-degrees, signed)
//   any other command -> 0xFF
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "src/svc/space_api.hpp"
#include "src/util/rng.hpp"
#include "src/wire/master.hpp"
#include "src/wire/slave.hpp"

namespace tb::svc {

/// Plant model parameters for TemperatureSensor.
struct SensorProfile {
  double base_centi = 2'150.0;       ///< 21.5 degC
  double swing_centi = 300.0;        ///< +/- 3 degC drift
  double noise_centi = 15.0;
  double drift_period_readings = 200.0;
  std::uint64_t seed = 7;
};

/// Deterministic plant model: a slow sine drift plus seeded noise.
class TemperatureSensor final : public wire::SpiPeripheral {
 public:
  using Profile = SensorProfile;

  explicit TemperatureSensor(Profile profile = {});

  std::uint8_t exchange(std::uint8_t mosi) override;

  std::uint64_t conversions() const { return conversions_; }
  /// The most recent converted value (what the next two reads return).
  std::int16_t last_value_centi() const { return value_; }

  static constexpr std::uint8_t kCmdConvert = 0x01;
  static constexpr std::uint8_t kCmdRead = 0x00;

 private:
  Profile profile_;
  util::Xoshiro256 rng_;
  std::uint64_t conversions_ = 0;
  std::int16_t value_ = 0;
  int read_stage_ = 0;  ///< 0 = idle, 1 = high byte next, 2 = low byte next
};

struct SensorAgentConfig {
  std::uint8_t node = 1;               ///< slave hosting the sensor
  sim::Time period = sim::Time::sec(1);
  sim::Time reading_lease = sim::Time::sec(5);  ///< freshness bound
  /// Readings at or above this publish an additional alarm tuple
  /// ("overtemp", node, centi). INT16_MAX disables.
  std::int16_t alarm_threshold_centi = INT16_MAX;
};

/// Polls the sensor over the bus and publishes readings into the space.
class SensorAgent {
 public:
  SensorAgent(wire::Master& master, SpaceApi& api, SensorAgentConfig config);

  void start();
  void stop() { running_ = false; }

  struct Stats {
    std::uint64_t readings_published = 0;
    std::uint64_t alarms_published = 0;
    std::uint64_t bus_errors = 0;
    std::int16_t last_centi = 0;
  };
  const Stats& stats() const { return stats_; }

  static const char* reading_tuple_name() { return "temperature"; }
  static const char* alarm_tuple_name() { return "overtemp"; }

 private:
  sim::Task<void> run();
  /// One conversion + two-byte read over the SPI port; nullopt on bus error.
  sim::Task<std::optional<std::int16_t>> sample();

  wire::Master* master_;
  SpaceApi* api_;
  SensorAgentConfig config_;
  bool running_ = false;
  Stats stats_;
  sim::Task<void> process_;  ///< last: destroyed before what it uses
};

}  // namespace tb::svc
