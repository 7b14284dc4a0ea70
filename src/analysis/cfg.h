// CFG utilities shared by the analyses and the transforms.
#pragma once

#include <vector>

#include "src/ir/function.h"

namespace twill {

/// Blocks whose terminator is a `ret`.
std::vector<BasicBlock*> exitBlocks(Function& f);

/// Every function of `m`, each after the functions it calls (the input
/// language has no recursion): a post-order walk of the call graph from
/// `main`, then from each function in module order. Iterative, so a deep
/// call chain from untrusted source cannot overflow the native stack.
std::vector<Function*> calleesFirst(Module& m);

/// Splits the edge pred -> succ by inserting a fresh block containing only a
/// branch to `succ`, rewiring pred's terminator and succ's PHIs. Returns the
/// new block. Used by loop-simplify and the DSWP consume placement.
BasicBlock* splitEdge(Function& f, BasicBlock* pred, BasicBlock* succ, const std::string& name);

}  // namespace twill
