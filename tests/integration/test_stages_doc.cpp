// docs/stages.md is the reference for the built-in stages and the flow
// recipes; this test pins both of its tables to the live ones so the page
// cannot drift. Every built-in stage must have a row in the "Stages" table
// and every row there must name a built-in stage; every recipe must have a
// row in the "Recipes" table whose stage column lists exactly the recipe's
// stages, and every row there must name a recipe. Rows are recognized by a
// backticked first column (`| `name` |`). EMORPHIC_SOURCE_DIR is injected by
// CMake so the test finds the page regardless of the build directory.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "flow/pipeline.hpp"

namespace emorphic {
namespace {

std::string read_stages_doc() {
  const std::string path = std::string(EMORPHIC_SOURCE_DIR) + "/docs/stages.md";
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "docs/stages.md not found at " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Every `backticked` token of `text`, in order.
std::vector<std::string> backticked(const std::string& text) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (true) {
    std::size_t open = text.find('`', pos);
    if (open == std::string::npos) break;
    std::size_t close = text.find('`', open + 1);
    if (close == std::string::npos) break;
    tokens.push_back(text.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return tokens;
}

/// The table rows under the "## <section>" heading (up to the next "## "):
/// backticked first column -> the row's cells after it.
std::map<std::string, std::vector<std::string>> table_rows(
    const std::string& text, const std::string& section) {
  std::map<std::string, std::vector<std::string>> rows;
  std::istringstream lines(text);
  std::string line;
  bool inside = false;
  while (std::getline(lines, line)) {
    if (line.rfind("## ", 0) == 0) {
      inside = line == "## " + section;
      continue;
    }
    // A data row looks like: | `name` | cell | ... |
    if (!inside || line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells;
    std::istringstream fields(line.substr(1));
    std::string cell;
    while (std::getline(fields, cell, '|')) cells.push_back(cell);
    std::vector<std::string> name = backticked(cells.front());
    if (name.empty()) continue;
    rows[name.front()] =
        std::vector<std::string>(cells.begin() + 1, cells.end());
  }
  return rows;
}

TEST(StagesDoc, StageTableMatchesTheBuiltinStages) {
  std::map<std::string, std::vector<std::string>> documented =
      table_rows(read_stages_doc(), "Stages");
  ASSERT_FALSE(documented.empty())
      << "no `| `name` |` rows under \"## Stages\" in docs/stages.md";

  std::vector<std::string> builtin = builtin_stage_names();
  for (const std::string& name : builtin) {
    EXPECT_TRUE(documented.count(name) != 0)
        << "stage '" << name
        << "' is built in but has no row in docs/stages.md — document it";
  }
  for (const auto& [name, cells] : documented) {
    EXPECT_TRUE(std::find(builtin.begin(), builtin.end(), name) !=
                builtin.end())
        << "docs/stages.md documents stage '" << name
        << "', which is not built in — remove or fix the row";
  }
}

TEST(StagesDoc, RecipeTableMatchesTheLiveRecipes) {
  std::map<std::string, std::vector<std::string>> documented =
      table_rows(read_stages_doc(), "Recipes");
  ASSERT_FALSE(documented.empty())
      << "no `| `name` |` rows under \"## Recipes\" in docs/stages.md";

  std::vector<std::string> recipes = recipe_names();
  for (const std::string& name : recipes) {
    auto row = documented.find(name);
    if (row == documented.end()) {
      ADD_FAILURE() << "recipe '" << name
                    << "' has no row in docs/stages.md — document it";
      continue;
    }
    ASSERT_FALSE(row->second.empty()) << name;
    EXPECT_EQ(backticked(row->second.front()),
              Pipeline::recipe(name).stage_names())
        << "the stage column of recipe '" << name
        << "' in docs/stages.md disagrees with the recipe";
  }
  for (const auto& [name, cells] : documented) {
    EXPECT_TRUE(std::find(recipes.begin(), recipes.end(), name) !=
                recipes.end())
        << "docs/stages.md documents recipe '" << name
        << "', which does not exist — remove or fix the row";
  }
}

TEST(StagesDoc, EveryBuiltinStageInstantiates) {
  // The constructor behind every documented name must actually produce a
  // stage whose name() round-trips (the doc links names to behavior).
  for (const std::string& name : builtin_stage_names()) {
    StagePtr stage = make_stage(name);
    ASSERT_NE(stage, nullptr) << name;
    EXPECT_EQ(stage->name(), name);
  }
}

}  // namespace
}  // namespace emorphic
