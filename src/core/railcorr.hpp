/// \file railcorr.hpp
/// \brief Umbrella header: the full public API of the railcorr library.
///
/// railcorr reproduces "Increasing Cellular Network Energy Efficiency for
/// Railway Corridors" (Schumacher, Merz, Burg — DATE 2022): planning and
/// simulation of energy-efficient railway cellular corridors in which
/// low-power out-of-band repeater nodes replace most high-power remote
/// radio heads.
///
/// Quick start:
/// \code
///   railcorr::core::PaperEvaluator evaluator;           // paper defaults
///   auto bars = evaluator.fig4_energy();                // Fig. 4
///   auto plan = railcorr::corridor::CorridorPlanner::paper_planner()
///                   .plan(railcorr::corridor::RepeaterOperationMode::kSolarPowered);
///   std::cout << "best: N = " << plan.best().repeater_count
///             << ", saves " << plan.best().savings * 100 << " %\n";
/// \endcode
#pragma once

// Utilities
#include "util/constants.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/grid.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

// RF substrate
#include "rf/carrier.hpp"
#include "rf/emf.hpp"
#include "rf/fading.hpp"
#include "rf/fronthaul.hpp"
#include "rf/link.hpp"
#include "rf/noise.hpp"
#include "rf/path_loss.hpp"
#include "rf/throughput.hpp"
#include "rf/uplink.hpp"

// Power models
#include "power/components.hpp"
#include "power/earth_model.hpp"
#include "power/profiles.hpp"

// Traffic
#include "traffic/detector.hpp"
#include "traffic/duty.hpp"
#include "traffic/timetable.hpp"
#include "traffic/train.hpp"

// Corridor planning
#include "corridor/capacity.hpp"
#include "corridor/cost.hpp"
#include "corridor/deployment.hpp"
#include "corridor/energy.hpp"
#include "corridor/geometry.hpp"
#include "corridor/isd_search.hpp"
#include "corridor/multi_segment.hpp"
#include "corridor/planner.hpp"
#include "corridor/robustness.hpp"

// Solar / off-grid
#include "solar/battery.hpp"
#include "solar/consumption.hpp"
#include "solar/geometry.hpp"
#include "solar/irradiance.hpp"
#include "solar/locations.hpp"
#include "solar/offgrid.hpp"
#include "solar/pv.hpp"
#include "solar/sizing.hpp"

// Discrete-event simulation
#include "sim/corridor_sim.hpp"
#include "sim/event_queue.hpp"
#include "sim/node_agent.hpp"

// Paper pipeline
#include "core/evaluator.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
