#include "vgpu/chaos.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/rng.hpp"

namespace mps::vgpu {

namespace {

[[noreturn]] void bad_script(const std::string& source, const std::string& tok,
                             const std::string& why) {
  throw mps::InvalidInputError(source + ": bad chaos event \"" + tok +
                               "\": " + why);
}

// "key=value" pairs from the trigger/param section of one event token.
struct KeyValue {
  std::string key;
  std::string value;
};

std::vector<KeyValue> split_pairs(const std::string& s) {
  std::vector<KeyValue> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string part =
        s.substr(pos, comma == std::string::npos ? std::string::npos
                                                 : comma - pos);
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0) {
      out.push_back({part, ""});  // caller reports the malformed pair
    } else {
      out.push_back({part.substr(0, eq), part.substr(eq + 1)});
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

long long parse_ll(const std::string& source, const std::string& tok,
                   const std::string& value, long long min) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 0);
  if (end == value.c_str() || !end || *end != '\0' || errno == ERANGE ||
      parsed < min)
    bad_script(source, tok, "\"" + value + "\" is not an integer >= " +
                                std::to_string(min));
  return parsed;
}

double parse_dbl(const std::string& source, const std::string& tok,
                 const std::string& value, double min) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || !end || *end != '\0' || errno == ERANGE ||
      !(parsed >= min))
    bad_script(source, tok, "\"" + value + "\" is not a number >= " +
                                std::to_string(min));
  return parsed;
}

ChaosEvent parse_event(const std::string& source, const std::string& tok) {
  // <verb>[:dev=D]@<trigger>=N[,param=V...]
  const std::size_t at = tok.find('@');
  if (at == std::string::npos)
    bad_script(source, tok, "missing '@trigger=value'");
  std::string head = tok.substr(0, at);
  const std::string tail = tok.substr(at + 1);

  ChaosEvent ev;
  const std::size_t colon = head.find(':');
  if (colon != std::string::npos) {
    const std::string dev = head.substr(colon + 1);
    head = head.substr(0, colon);
    if (dev.rfind("dev=", 0) != 0)
      bad_script(source, tok, "expected ':dev=D', got ':" + dev + "'");
    ev.device = static_cast<int>(parse_ll(source, tok, dev.substr(4), 0));
  }

  if (head == "lose") {
    ev.kind = ChaosEvent::Kind::kDeviceLoss;
  } else if (head == "straggle") {
    ev.kind = ChaosEvent::Kind::kStraggler;
  } else if (head == "oom") {
    ev.kind = ChaosEvent::Kind::kAllocFail;
  } else if (head == "flip") {
    ev.kind = ChaosEvent::Kind::kBitFlip;
  } else {
    bad_script(source, tok,
               "unknown verb \"" + head +
                   "\" (want lose | straggle | oom | flip)");
  }

  bool have_trigger = false;
  for (const KeyValue& kv : split_pairs(tail)) {
    if (kv.value.empty())
      bad_script(source, tok, "malformed pair \"" + kv.key + "\"");
    if (kv.key == "launch" && (ev.kind == ChaosEvent::Kind::kDeviceLoss ||
                               ev.kind == ChaosEvent::Kind::kStraggler)) {
      ev.at_launch = parse_ll(source, tok, kv.value, 1);
      have_trigger = true;
    } else if (kv.key == "ms" && ev.kind == ChaosEvent::Kind::kDeviceLoss) {
      ev.at_modeled_ms = parse_dbl(source, tok, kv.value, 0.0);
      have_trigger = true;
    } else if (kv.key == "alloc" && (ev.kind == ChaosEvent::Kind::kAllocFail ||
                                     ev.kind == ChaosEvent::Kind::kBitFlip)) {
      ev.at_alloc = parse_ll(source, tok, kv.value, 1);
      have_trigger = true;
    } else if (kv.key == "x" && ev.kind == ChaosEvent::Kind::kStraggler) {
      ev.factor = parse_dbl(source, tok, kv.value, 1.0);
    } else if (kv.key == "every" && (ev.kind == ChaosEvent::Kind::kStraggler ||
                                     ev.kind == ChaosEvent::Kind::kBitFlip)) {
      ev.every = parse_ll(source, tok, kv.value, 1);
    } else if (kv.key == "offset" && ev.kind == ChaosEvent::Kind::kBitFlip) {
      ev.offset =
          static_cast<std::size_t>(parse_ll(source, tok, kv.value, 0));
    } else if (kv.key == "mask" && ev.kind == ChaosEvent::Kind::kBitFlip) {
      const long long mask = parse_ll(source, tok, kv.value, 0);
      if (mask > 0xFF)
        bad_script(source, tok, "mask must fit in one byte");
      ev.mask = static_cast<std::uint8_t>(mask);
    } else {
      bad_script(source, tok,
                 "unknown parameter \"" + kv.key + "\" for verb \"" + head +
                     "\"");
    }
  }
  if (!have_trigger)
    bad_script(source, tok,
               ev.kind == ChaosEvent::Kind::kAllocFail ||
                       ev.kind == ChaosEvent::Kind::kBitFlip
                   ? "missing alloc=N trigger"
                   : "missing launch=N or ms=T trigger");
  return ev;
}

}  // namespace

ChaosSchedule ChaosSchedule::parse(const std::string& script,
                                   const std::string& source) {
  ChaosSchedule sched;
  std::size_t pos = 0;
  while (pos <= script.size()) {
    const std::size_t semi = script.find(';', pos);
    std::string tok = script.substr(
        pos, semi == std::string::npos ? std::string::npos : semi - pos);
    // Trim surrounding whitespace so "a; b" reads naturally.
    while (!tok.empty() && std::isspace(static_cast<unsigned char>(tok.front())))
      tok.erase(tok.begin());
    while (!tok.empty() && std::isspace(static_cast<unsigned char>(tok.back())))
      tok.pop_back();
    if (!tok.empty()) sched.events.push_back(parse_event(source, tok));
    if (semi == std::string::npos) break;
    pos = semi + 1;
  }
  return sched;
}

ChaosSchedule ChaosSchedule::seeded(std::uint64_t seed, int num_devices) {
  ChaosSchedule sched;
  if (num_devices <= 0) return sched;
  util::Rng rng(seed);

  // One device loss, landing after the trace has warmed up: random device,
  // launch ordinal in [32, 128).
  {
    ChaosEvent ev;
    ev.kind = ChaosEvent::Kind::kDeviceLoss;
    ev.device = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(num_devices)));
    ev.at_launch = 32 + static_cast<long long>(rng.uniform(96));
    sched.events.push_back(ev);
  }
  // Per device: a recurring straggler, one alloc failure, and a recurring
  // silent bit flip.  All ordinals drawn independently so schedules differ
  // across devices even at the same seed.
  static const double kFactors[] = {2.0, 4.0, 8.0};
  for (int d = 0; d < num_devices; ++d) {
    ChaosEvent straggle;
    straggle.kind = ChaosEvent::Kind::kStraggler;
    straggle.device = d;
    straggle.at_launch = 4 + static_cast<long long>(rng.uniform(28));
    straggle.factor = kFactors[rng.uniform(3)];
    straggle.every = 16 + static_cast<long long>(rng.uniform(48));
    sched.events.push_back(straggle);

    ChaosEvent oom;
    oom.kind = ChaosEvent::Kind::kAllocFail;
    oom.device = d;
    oom.at_alloc = 8 + static_cast<long long>(rng.uniform(120));
    sched.events.push_back(oom);

    ChaosEvent flip;
    flip.kind = ChaosEvent::Kind::kBitFlip;
    flip.device = d;
    flip.at_alloc = 16 + static_cast<long long>(rng.uniform(240));
    flip.offset = static_cast<std::size_t>(rng.uniform(64));
    flip.mask = static_cast<std::uint8_t>(1u << rng.uniform(8));
    flip.every = 64 + static_cast<long long>(rng.uniform(192));
    sched.events.push_back(flip);
  }
  return sched;
}

std::string ChaosSchedule::to_script() const {
  std::ostringstream out;
  bool first = true;
  for (const ChaosEvent& ev : events) {
    if (!first) out << ';';
    first = false;
    const auto dev = [&]() -> std::string {
      return ev.device >= 0 ? ":dev=" + std::to_string(ev.device) : "";
    };
    switch (ev.kind) {
      case ChaosEvent::Kind::kDeviceLoss:
        out << "lose" << dev() << '@';
        if (ev.at_launch > 0)
          out << "launch=" << ev.at_launch;
        else
          out << "ms=" << ev.at_modeled_ms;
        break;
      case ChaosEvent::Kind::kStraggler:
        out << "straggle" << dev() << "@launch=" << ev.at_launch
            << ",x=" << ev.factor;
        if (ev.every > 0) out << ",every=" << ev.every;
        break;
      case ChaosEvent::Kind::kAllocFail:
        out << "oom" << dev() << "@alloc=" << ev.at_alloc;
        break;
      case ChaosEvent::Kind::kBitFlip: {
        char mask[8];
        std::snprintf(mask, sizeof(mask), "0x%02x", ev.mask);
        out << "flip" << dev() << "@alloc=" << ev.at_alloc
            << ",offset=" << ev.offset << ",mask=" << mask;
        if (ev.every > 0) out << ",every=" << ev.every;
        break;
      }
    }
  }
  return out.str();
}

}  // namespace mps::vgpu
