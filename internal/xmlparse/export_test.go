package xmlparse

// Test tables shared with the external test package, where the parser
// golden (golden_test.go) replays them.
var (
	ConformanceAccept = conformanceAccept
	ConformanceReject = conformanceReject
	SyntaxErrorCases  = syntaxErrorCases
	FuzzParseSeeds    = fuzzParseSeeds
)
