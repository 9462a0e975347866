package bgpsim

// TinyGraph lends the hand-checkable test topology to the external test
// package, which compares the solver against bgpsimtest (an importer of
// this package, so those tests cannot live inside it).
var TinyGraph = tinyGraph
