#include "src/svc/sensor.hpp"

#include <cmath>
#include <numbers>

#include "src/util/assert.hpp"

namespace tb::svc {

TemperatureSensor::TemperatureSensor(Profile profile)
    : profile_(profile), rng_(profile.seed) {
  TB_REQUIRE(profile.drift_period_readings > 0.0);
}

std::uint8_t TemperatureSensor::exchange(std::uint8_t mosi) {
  if (mosi == kCmdConvert) {
    const double phase = 2.0 * std::numbers::pi *
                         static_cast<double>(conversions_) /
                         profile_.drift_period_readings;
    const double noise = (rng_.next_double() * 2.0 - 1.0) * profile_.noise_centi;
    value_ = static_cast<std::int16_t>(
        profile_.base_centi + profile_.swing_centi * std::sin(phase) + noise);
    ++conversions_;
    read_stage_ = 1;
    return 0xB0;  // status: conversion complete (this model is instantaneous)
  }
  if (mosi == kCmdRead) {
    switch (read_stage_) {
      case 1:
        read_stage_ = 2;
        return static_cast<std::uint8_t>(static_cast<std::uint16_t>(value_) >> 8);
      case 2:
        read_stage_ = 0;
        return static_cast<std::uint8_t>(value_ & 0xFF);
      default:
        return 0xFF;  // no conversion pending
    }
  }
  return 0xFF;
}

SensorAgent::SensorAgent(wire::Master& master, SpaceApi& api,
                         SensorAgentConfig config)
    : master_(&master), api_(&api), config_(config) {
  TB_REQUIRE(config.period > sim::Time::zero());
  TB_REQUIRE(config.reading_lease > sim::Time::zero());
}

void SensorAgent::start() {
  TB_REQUIRE_MSG(process_.done(), "sensor loop still running");
  running_ = true;
  process_ = run();
  process_.start();
}

sim::Task<std::optional<std::int16_t>> SensorAgent::sample() {
  wire::ByteResult status = co_await master_->spi_transfer(
      config_.node, TemperatureSensor::kCmdConvert);
  if (!status.ok()) co_return std::nullopt;
  wire::ByteResult hi = co_await master_->spi_transfer(
      config_.node, TemperatureSensor::kCmdRead);
  if (!hi.ok()) co_return std::nullopt;
  wire::ByteResult lo = co_await master_->spi_transfer(
      config_.node, TemperatureSensor::kCmdRead);
  if (!lo.ok()) co_return std::nullopt;
  co_return static_cast<std::int16_t>((hi.value << 8) | lo.value);
}

sim::Task<void> SensorAgent::run() {
  while (running_) {
    std::optional<std::int16_t> reading = co_await sample();
    if (!running_) co_return;
    if (!reading.has_value()) {
      ++stats_.bus_errors;
    } else {
      stats_.last_centi = *reading;
      space::Tuple tuple = space::make_tuple(
          reading_tuple_name(), std::int64_t{config_.node},
          std::int64_t{*reading});
      co_await api_->write(std::move(tuple), config_.reading_lease);
      ++stats_.readings_published;
      if (*reading >= config_.alarm_threshold_centi) {
        space::Tuple alarm = space::make_tuple(
            alarm_tuple_name(), std::int64_t{config_.node},
            std::int64_t{*reading});
        co_await api_->write(std::move(alarm), config_.reading_lease);
        ++stats_.alarms_published;
      }
    }
    co_await sim::delay(api_->simulator(), config_.period);
  }
}

}  // namespace tb::svc
