#include "exp/sweep.h"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

namespace hcs::exp {

namespace {

using util::JsonValue;

[[noreturn]] void fail(const JsonValue& at, const std::string& message) {
  std::ostringstream out;
  if (at.line() > 0) out << "line " << at.line() << ": ";
  out << message;
  throw ScenarioError(out.str());
}

std::string scalarLabel(const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Bool: return value.asBool() ? "true" : "false";
    case JsonValue::Type::Number:
      return util::formatJsonNumber(value.asNumber());
    case JsonValue::Type::String: return value.asString();
    default: return "<composite>";
  }
}

SweepAxis parseAxis(const JsonValue& json) {
  SweepAxis axis;
  if (!json.isObject()) fail(json, "sweep: each axis must be an object");
  const JsonValue* field = json.find("field");
  const JsonValue* values = json.find("values");
  const JsonValue* labels = json.find("labels");
  const JsonValue* range = json.find("range");
  const JsonValue* label = json.find("label");
  const JsonValue* cases = json.find("cases");
  for (const auto& member : json.object()) {
    if (member.first != "field" && member.first != "values" &&
        member.first != "labels" && member.first != "range" &&
        member.first != "label" && member.first != "cases") {
      fail(member.second, "sweep axis: unknown key \"" + member.first + "\"");
    }
  }

  if (label != nullptr) {
    if (!label->isString()) fail(*label, "sweep axis: label must be a string");
    axis.label = label->asString();
  }

  if (cases != nullptr) {
    if (field != nullptr || values != nullptr || range != nullptr ||
        labels != nullptr) {
      fail(json, "sweep axis: \"cases\" excludes field/values/range/labels");
    }
    if (!cases->isArray() || cases->array().empty()) {
      fail(*cases, "sweep axis: cases must be a non-empty array");
    }
    for (const JsonValue& c : cases->array()) {
      if (!c.isObject()) fail(c, "sweep axis: each case must be an object");
      SweepCase sweepCase;
      for (const auto& member : c.object()) {
        if (member.first == "name") {
          if (!member.second.isString()) {
            fail(member.second, "sweep case: name must be a string");
          }
          sweepCase.name = member.second.asString();
        } else if (member.first == "set") {
          if (!member.second.isObject()) {
            fail(member.second, "sweep case: set must be an object");
          }
          for (const auto& assignment : member.second.object()) {
            sweepCase.sets.emplace_back(assignment.first, assignment.second);
          }
        } else {
          fail(member.second,
               "sweep case: unknown key \"" + member.first + "\"");
        }
      }
      if (sweepCase.name.empty()) fail(c, "sweep case: missing name");
      axis.cases.push_back(std::move(sweepCase));
      axis.valueLabels.push_back(axis.cases.back().name);
    }
    if (axis.label.empty()) axis.label = "case";
    return axis;
  }

  if (field == nullptr || !field->isString() || field->asString().empty()) {
    fail(json, "sweep axis: needs a \"field\" path (or \"cases\")");
  }
  axis.field = field->asString();
  if (axis.label.empty()) axis.label = axis.field;

  if ((values != nullptr) == (range != nullptr)) {
    fail(json, "sweep axis: exactly one of \"values\" or \"range\" required");
  }
  if (values != nullptr) {
    if (!values->isArray() || values->array().empty()) {
      fail(*values, "sweep axis: values must be a non-empty array");
    }
    axis.values = values->array();
  } else {
    if (!range->isObject()) {
      fail(*range, "sweep axis: range must be {from, to, step}");
    }
    double from = 0, to = 0, step = 0;
    for (const auto& member : range->object()) {
      if (!member.second.isNumber()) {
        fail(member.second, "sweep axis range: values must be numbers");
      }
      if (member.first == "from") {
        from = member.second.asNumber();
      } else if (member.first == "to") {
        to = member.second.asNumber();
      } else if (member.first == "step") {
        step = member.second.asNumber();
      } else {
        fail(member.second,
             "sweep axis range: unknown key \"" + member.first + "\"");
      }
    }
    if (range->find("from") == nullptr || range->find("to") == nullptr ||
        range->find("step") == nullptr) {
      fail(*range, "sweep axis range: needs from, to and step");
    }
    if (step <= 0.0) fail(*range, "sweep axis range: step must be positive");
    if (to < from) fail(*range, "sweep axis range: to must be >= from");
    // Count-based expansion avoids accumulating step rounding error.
    const auto count =
        static_cast<std::size_t>(std::floor((to - from) / step + 1e-9)) + 1;
    axis.values.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      axis.values.emplace_back(from + static_cast<double>(i) * step);
    }
  }

  if (labels != nullptr) {
    if (!labels->isArray() || labels->array().size() != axis.values.size()) {
      fail(*labels,
           "sweep axis: labels must be an array matching values 1:1");
    }
    for (const JsonValue& l : labels->array()) {
      if (!l.isString()) fail(l, "sweep axis: labels must be strings");
      axis.valueLabels.push_back(l.asString());
    }
  } else {
    for (const JsonValue& v : axis.values) {
      axis.valueLabels.push_back(scalarLabel(v));
    }
  }
  return axis;
}

}  // namespace

void setJsonPath(JsonValue& root, const std::string& path, JsonValue value) {
  if (path.empty()) throw ScenarioError("set: empty path");
  JsonValue* node = &root;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = path.find('.', start);
    const std::string key = path.substr(start, dot - start);
    if (key.empty()) {
      throw ScenarioError("set: malformed path \"" + path + "\"");
    }
    if (!node->isObject()) {
      throw ScenarioError("set: \"" + path.substr(0, start) +
                          "\" is not an object");
    }
    if (dot == std::string::npos) {
      node->set(key, std::move(value));
      return;
    }
    JsonValue* child = node->find(key);
    if (child == nullptr) {
      child = &node->set(key, JsonValue::makeObject());
    }
    node = child;
    start = dot + 1;
  }
}

void applySetDirective(JsonValue& root, const std::string& directive) {
  const std::size_t eq = directive.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw ScenarioError("--set expects path=value, got \"" + directive +
                        "\"");
  }
  const std::string path = directive.substr(0, eq);
  const std::string text = directive.substr(eq + 1);
  JsonValue value;
  try {
    value = util::parseJson(text);
  } catch (const util::JsonError&) {
    value = JsonValue(text);  // bare word: treat as a string
  }
  setJsonPath(root, path, std::move(value));
}

ScenarioDoc parseScenarioDoc(const std::string& text,
                             const std::string& origin) {
  ScenarioDoc doc;
  doc.origin = origin;
  JsonValue root = util::parseJson(text, origin);
  if (!root.isObject()) {
    throw ScenarioError(origin.empty()
                            ? "scenario: expected a JSON object"
                            : origin + ": expected a JSON object");
  }
  JsonValue::Object& members = root.object();
  doc.base = JsonValue::makeObject();
  const JsonValue* sweep = nullptr;
  for (JsonValue::Member& member : members) {
    if (member.first == "sweep") {
      sweep = &member.second;
    } else {
      doc.base.object().push_back(std::move(member));
    }
  }
  // Parse the axes, then validate eagerly: the base schema, then every
  // patched grid point (a sweep value of the wrong type should fail at
  // load, not mid-run).  Schema errors get the document origin prefixed,
  // so "line N" is attributable when several files (or a --set-patched
  // canonical form) are in play.
  try {
    if (sweep != nullptr) {
      if (!sweep->isArray()) {
        fail(*sweep, "sweep: expected an array of axes");
      }
      for (const JsonValue& axis : sweep->array()) {
        doc.axes.push_back(parseAxis(axis));
      }
    }
    (void)parseScenarioSpec(doc.base);
    (void)expandGrid(doc);
  } catch (const ScenarioError& e) {
    if (origin.empty()) throw;
    throw ScenarioError(origin + ": " + e.what());
  }
  return doc;
}

ScenarioDoc loadScenarioDoc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ScenarioError(path + ": cannot open file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseScenarioDoc(buffer.str(), path);
}

ScenarioDoc loadScenarioDoc(const std::string& path,
                            const std::vector<std::string>& sets) {
  ScenarioDoc doc = loadScenarioDoc(path);
  if (sets.empty()) return doc;
  for (const std::string& directive : sets) {
    // The file's sweep axes were already split off doc.base and would
    // clobber a "sweep" assignment on re-serialization — reject instead of
    // silently ignoring it.
    if (directive.rfind("sweep=", 0) == 0 ||
        directive.rfind("sweep.", 0) == 0) {
      throw ScenarioError(
          "--set cannot override \"sweep\"; edit the scenario file");
    }
    applySetDirective(doc.base, directive);
  }
  return parseScenarioDoc(writeScenarioDoc(doc),
                          path + " (after --set; lines refer to the "
                                 "canonical form)");
}

std::string writeScenarioDoc(const ScenarioDoc& doc) {
  JsonValue root = doc.base;
  if (!doc.axes.empty()) {
    JsonValue sweep = JsonValue::makeArray();
    for (const SweepAxis& axis : doc.axes) {
      JsonValue a = JsonValue::makeObject();
      a.set("label", axis.label);
      if (axis.isCases()) {
        JsonValue cases = JsonValue::makeArray();
        for (const SweepCase& c : axis.cases) {
          JsonValue obj = JsonValue::makeObject();
          obj.set("name", c.name);
          JsonValue set = JsonValue::makeObject();
          for (const auto& [path, value] : c.sets) set.set(path, value);
          obj.set("set", std::move(set));
          cases.append(std::move(obj));
        }
        a.set("cases", std::move(cases));
      } else {
        a.set("field", axis.field);
        JsonValue values = JsonValue::makeArray();
        for (const JsonValue& v : axis.values) values.append(v);
        a.set("values", std::move(values));
        JsonValue labels = JsonValue::makeArray();
        for (const std::string& l : axis.valueLabels) labels.append(l);
        a.set("labels", std::move(labels));
      }
      sweep.append(std::move(a));
    }
    root.set("sweep", std::move(sweep));
  }
  return util::writeJson(root);
}

std::vector<GridPoint> expandGrid(const ScenarioDoc& doc) {
  std::size_t total = 1;
  for (const SweepAxis& axis : doc.axes) total *= axis.size();

  std::vector<GridPoint> grid;
  grid.reserve(total);
  for (std::size_t flat = 0; flat < total; ++flat) {
    GridPoint point;
    point.index.resize(doc.axes.size());
    // Decompose row-major: last axis varies fastest.
    std::size_t rest = flat;
    for (std::size_t a = doc.axes.size(); a-- > 0;) {
      point.index[a] = rest % doc.axes[a].size();
      rest /= doc.axes[a].size();
    }
    point.json = doc.base;
    for (std::size_t a = 0; a < doc.axes.size(); ++a) {
      const SweepAxis& axis = doc.axes[a];
      const std::size_t pick = point.index[a];
      point.labels.push_back(axis.valueLabels[pick]);
      if (axis.isCases()) {
        for (const auto& [path, value] : axis.cases[pick].sets) {
          setJsonPath(point.json, path, value);
        }
      } else {
        setJsonPath(point.json, axis.field, axis.values[pick]);
      }
    }
    try {
      point.spec = parseScenarioSpec(point.json);
    } catch (const ScenarioError& e) {
      std::ostringstream out;
      out << "grid point [";
      for (std::size_t i = 0; i < point.labels.size(); ++i) {
        if (i > 0) out << ", ";
        out << point.labels[i];
      }
      out << "]: " << e.what();
      throw ScenarioError(out.str());
    }
    grid.push_back(std::move(point));
  }
  return grid;
}

std::vector<SweepOutcome> runSweep(
    const ScenarioDoc& doc,
    const std::function<void(std::size_t, std::size_t, const std::string&)>&
        progress) {
  std::vector<GridPoint> grid = expandGrid(doc);
  std::map<std::string, std::shared_ptr<const PaperScenario>> models;
  std::vector<SweepOutcome> outcomes;
  outcomes.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    GridPoint& point = grid[i];
    if (progress) {
      std::ostringstream label;
      for (std::size_t a = 0; a < point.labels.size(); ++a) {
        if (a > 0) label << " ";
        label << doc.axes[a].label << "=" << point.labels[a];
      }
      progress(i, grid.size(), label.str());
    }
    std::shared_ptr<const PaperScenario>& cached =
        models[scenarioModelKey(point.spec)];
    BoundScenario bound = bindScenario(point.spec, cached);
    cached = bound.paper;
    SweepOutcome outcome;
    outcome.result =
        bound.federated
            ? runExperiment(bound.fedModels, bound.experiment,
                            bound.federation)
            : runExperiment(*bound.model, bound.experiment);
    outcome.point = std::move(point);
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace hcs::exp
